package core

import (
	"os"
	"testing"

	"backdroid/internal/android"
	"backdroid/internal/apk"
	"backdroid/internal/appgen"
	"backdroid/internal/dexdump"
	"backdroid/internal/testapps"
)

// warmOptions configures an engine with the persistent bundle cache.
func warmOptions(dir string) Options {
	opts := DefaultOptions()
	opts.IndexCacheDir = dir
	return opts
}

// TestWarmEngineRunZeroDisassembly pins the tentpole acceptance criterion:
// after one cold analysis writes the bundle, a warm engine run performs
// zero disassembly (no ChargeLines) and zero index builds — it charges
// only the cheap dump- and index-cache load rates — with identical
// verdicts and strictly less total simulated work.
func TestWarmEngineRunZeroDisassembly(t *testing.T) {
	app, err := testapps.Fixture()
	if err != nil {
		t.Fatal(err)
	}
	opts := warmOptions(t.TempDir())

	cold := analyzeApp(t, app, opts)
	cs := cold.Stats
	if cs.DumpCacheHits != 0 || cs.DumpCacheMisses != 1 {
		t.Fatalf("cold dump stats = hits %d / misses %d, want 0/1", cs.DumpCacheHits, cs.DumpCacheMisses)
	}
	if cs.DumpLinesDisassembled == 0 {
		t.Fatal("cold run must disassemble")
	}
	if cs.Search.IndexBuilds != 1 {
		t.Fatalf("cold run built %d indexes, want 1", cs.Search.IndexBuilds)
	}

	warm := analyzeApp(t, app, opts)
	ws := warm.Stats
	if ws.DumpCacheHits != 1 || ws.DumpCacheMisses != 0 {
		t.Errorf("warm dump stats = hits %d / misses %d, want 1/0", ws.DumpCacheHits, ws.DumpCacheMisses)
	}
	if ws.DumpLinesDisassembled != 0 {
		t.Errorf("warm run disassembled %d lines, want 0", ws.DumpLinesDisassembled)
	}
	if ws.DumpCacheUnits == 0 {
		t.Error("warm run must charge the dump-cache load")
	}
	if ws.Search.IndexBuilds != 0 || ws.Search.IndexCacheHits != 1 {
		t.Errorf("warm index stats = %+v, want a pure cache load", ws.Search)
	}
	if ws.WorkUnits >= cs.WorkUnits {
		t.Errorf("warm charged %d units, cold %d — must be strictly cheaper", ws.WorkUnits, cs.WorkUnits)
	}
	assertSameVerdicts(t, "cold vs warm", cold, warm)
}

// TestWarmEngineSelfHealsDamagedDumpSection pins the refresh path: a
// bundle whose trailing section lost a byte is a miss of the whole
// bundle (one disassembly, one index build), and the engine rewrites the
// file so the next run is fully warm again.
func TestWarmEngineSelfHealsDamagedDumpSection(t *testing.T) {
	app, err := testapps.Fixture()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	opts := warmOptions(dir)
	want := analyzeApp(t, app, opts)

	path := dexdump.CachePath(dir, app.Name)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-1], 0o644); err != nil {
		t.Fatal(err)
	}

	healing := analyzeApp(t, app, opts)
	hs := healing.Stats
	if hs.DumpCacheHits != 0 || hs.DumpCacheMisses != 1 || hs.DumpLinesDisassembled == 0 {
		t.Errorf("healing run dump stats = %+v, want a miss with real disassembly", hs)
	}
	if hs.Search.IndexBuilds != 1 || hs.Search.IndexCacheHits != 0 || hs.Search.IndexCacheMisses != 1 {
		t.Errorf("healing run index stats = %+v, want an index cache miss and a build", hs.Search)
	}
	assertSameVerdicts(t, "healing", want, healing)

	warm := analyzeApp(t, app, opts)
	if ws := warm.Stats; ws.DumpCacheHits != 1 || ws.DumpLinesDisassembled != 0 || ws.Search.IndexCacheHits != 1 {
		t.Errorf("bundle not self-healed: %+v", ws)
	}
	assertSameVerdicts(t, "after healing", want, warm)
}

// TestWarmEngineStaleFingerprintMisses pins the staleness contract: a
// bundle written for one app must not warm-start a different app that
// happens to share its cache path (name collision / recompiled app).
func TestWarmEngineStaleFingerprintMisses(t *testing.T) {
	app, err := testapps.Fixture()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	analyzeApp(t, app, warmOptions(dir))

	other, _, err := appgen.Generate(appgen.Spec{
		Name:   "com.other.app",
		Seed:   7,
		SizeMB: 1,
		Sinks:  []appgen.SinkSpec{{Flow: appgen.FlowDirect, Rule: android.RuleCryptoECB, Insecure: true}},
	})
	if err != nil {
		t.Fatal(err)
	}
	other.Name = app.Name // same cache path, different bytecode
	r := analyzeApp(t, other, warmOptions(dir))
	s := r.Stats
	if s.DumpCacheHits != 0 || s.DumpCacheMisses != 1 || s.DumpLinesDisassembled == 0 {
		t.Errorf("stale bundle warm-started a different app: %+v", s)
	}
	if s.Search.IndexCacheHits != 0 || s.Search.IndexBuilds != 1 {
		t.Errorf("stale index loaded for a different app: %+v", s.Search)
	}

	// And the overwritten bundle now warms the new app, not the old one.
	again := analyzeApp(t, other, warmOptions(dir))
	if as := again.Stats; as.DumpCacheHits != 1 {
		t.Errorf("rewritten bundle did not warm the new app: %+v", as)
	}
}

// TestWarmHitDecodesOnlyTranslatedBodies: a store hit loads the dex
// tables and decodes a method body only when the analysis translates the
// method, so after the run the decoded bodies are exactly the translated
// ones — a small part of the app — while a cold run decodes every body.
// The verdicts match.
func TestWarmHitDecodesOnlyTranslatedBodies(t *testing.T) {
	spec := deltaBaseSpec()
	spec.MultiDex = true
	gen, _, err := appgen.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	data, err := gen.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Bundles = newMemBundles()
	run := func() (*Engine, *Report) {
		t.Helper()
		app, err := apk.ReadBytes(spec.Name, data)
		if err != nil {
			t.Fatal(err)
		}
		e, err := New(app, opts)
		if err != nil {
			t.Fatal(err)
		}
		r, err := e.Analyze()
		if err != nil {
			t.Fatal(err)
		}
		return e, r
	}
	decoded := func(e *Engine) (n, total int) {
		for _, c := range e.dexf.Classes() {
			for _, m := range c.Methods {
				if m.BodyDecoded() {
					n++
				}
				total++
			}
		}
		return n, total
	}

	ce, cold := run()
	if n, total := decoded(ce); n != total {
		t.Fatalf("cold run decoded %d of %d bodies, want all", n, total)
	}
	we, warm := run()
	if warm.Stats.BundleStoreHits != 1 {
		t.Fatalf("second run was not a store hit: %+v", warm.Stats)
	}
	n, total := decoded(we)
	if translated := we.prog.TranslatedCount(); n != translated || n == 0 || 4*n > total {
		t.Errorf("store hit decoded %d of %d bodies and translated %d; want the translated ones only, a small part",
			n, total, translated)
	}
	assertSameVerdicts(t, "cold vs store hit", cold, warm)
}
