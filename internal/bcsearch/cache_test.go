package bcsearch

import (
	"os"
	"testing"

	"backdroid/internal/dex"
	"backdroid/internal/dexdump"
	"backdroid/internal/simtime"
)

// fileIndexHook is a minimal Config.Index hook over one bundle file: a
// valid index section is loaded at the cache-load rate, anything else is
// a miss that builds the index at the build rate and writes the file.
// The core engine's hook adds the store tier, the dump section and
// self-heal on top of this same shape.
func fileIndexHook(text *dexdump.Text, meter *simtime.Meter, path string) func() (*dexdump.Index, Cost, error) {
	return func() (*dexdump.Index, Cost, error) {
		var cost Cost
		if data, err := os.ReadFile(path); err == nil {
			if x, err := dexdump.DecodeIndexFile(data, text); err == nil {
				if err := meter.ChargeIndexCacheLoad(text.LineCount()); err != nil {
					return nil, cost, err
				}
				cost.IndexLoaded = true
				return x, cost, nil
			}
		}
		cost.IndexCacheMiss = true
		if err := meter.ChargeIndexBuild(text.LineCount()); err != nil {
			return nil, cost, err
		}
		x := dexdump.BuildIndex(text)
		cost.IndexBuilt = true
		data, err := dexdump.EncodeBundle(text, x, 0, nil)
		if err != nil {
			return nil, cost, err
		}
		return x, cost, dexdump.WriteBundleBytes(path, data)
	}
}

// runFixtureQueries drives a representative command mix through an engine
// and returns the concatenated hits.
func runFixtureQueries(t *testing.T, e *Engine) []Hit {
	t.Helper()
	ref := dex.NewMethodRef("com.connectsdk.service.netcast.NetcastHttpServer", "start", dex.Void)
	var all []Hit
	for _, run := range []func() ([]Hit, error){
		func() ([]Hit, error) { return e.FindInvocations(ref) },
		func() ([]Hit, error) { return e.FindConstClass("com.connectsdk.service.netcast.NetcastHttpServer") },
		func() ([]Hit, error) { return e.FindClassUses("com.connectsdk.service.netcast.NetcastHttpServer") },
		func() ([]Hit, error) { return e.FindInvocationsOfNamePrefix("start") },
	} {
		hits, err := run()
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, hits...)
	}
	return all
}

// TestPersistentCacheWarmRun pins the searcher side of the persistent
// cache: through the Config.Index hook, a cold run tokenizes and writes
// the bundle file, a warm run over the same dump loads it — zero index
// builds, zero tokenization charge — and returns identical hits for
// strictly less simulated work. The bundle policy itself (tiers,
// validation, self-heal) is tested in core.
func TestPersistentCacheWarmRun(t *testing.T) {
	t.Run(BackendIndexed.String(), func(t *testing.T) {
		text := searchFixture(t)
		path := dexdump.CachePath(t.TempDir(), "fixture.app")

		coldMeter := simtime.NewMeter()
		cold := NewEngine(text, Config{Meter: coldMeter, Backend: BackendIndexed,
			Index: fileIndexHook(text, coldMeter, path)})
		coldHits := runFixtureQueries(t, cold)
		cs := cold.Stats()
		if cs.IndexBuilds != 1 || cs.IndexCacheHits != 0 || cs.IndexCacheMisses != 1 {
			t.Fatalf("cold run stats = %+v, want 1 build / 0 hits / 1 miss", cs)
		}
		if _, err := os.Stat(path); err != nil {
			t.Fatalf("cold run did not write the cache file: %v", err)
		}

		warmMeter := simtime.NewMeter()
		warm := NewEngine(text, Config{Meter: warmMeter, Backend: BackendIndexed,
			Index: fileIndexHook(text, warmMeter, path)})
		warmHits := runFixtureQueries(t, warm)
		ws := warm.Stats()
		if ws.IndexBuilds != 0 || ws.IndexLines != 0 {
			t.Errorf("warm run built the index: %+v, want 0 builds (tokenization must be skipped)", ws)
		}
		if ws.IndexCacheHits != 1 || ws.IndexCacheMisses != 0 {
			t.Errorf("warm run cache stats = %+v, want 1 hit / 0 misses", ws)
		}
		if !hitsEqual(coldHits, warmHits) {
			t.Errorf("warm hits differ from cold hits: %v vs %v", summarize(warmHits), summarize(coldHits))
		}
		if warmMeter.Units() >= coldMeter.Units() {
			t.Errorf("warm run charged %d units, cold %d — cache load must be cheaper than tokenization",
				warmMeter.Units(), coldMeter.Units())
		}
	})
}
