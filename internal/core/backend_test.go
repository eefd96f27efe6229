package core

import (
	"testing"

	"backdroid/internal/bcsearch"
	"backdroid/internal/testapps"
)

// assertSameVerdicts compares the per-sink outcomes of two reports.
func assertSameVerdicts(t *testing.T, label string, a, b *Report) {
	t.Helper()
	if len(a.Sinks) != len(b.Sinks) {
		t.Fatalf("%s: sink counts differ: %d vs %d", label, len(a.Sinks), len(b.Sinks))
	}
	for i := range a.Sinks {
		x, y := a.Sinks[i], b.Sinks[i]
		if x.Call.String() != y.Call.String() {
			t.Errorf("%s: sink %d call differs: %s vs %s", label, i, x.Call, y.Call)
		}
		if x.Reachable != y.Reachable || x.Insecure != y.Insecure {
			t.Errorf("%s: sink %d verdict differs: %+v vs %+v", label, i, x, y)
		}
		if len(x.Values) != len(y.Values) {
			t.Errorf("%s: sink %d values differ: %v vs %v", label, i, x.Values, y.Values)
			continue
		}
		for j := range x.Values {
			if x.Values[j] != y.Values[j] {
				t.Errorf("%s: sink %d value %d differs: %s vs %s", label, i, j, x.Values[j], y.Values[j])
			}
		}
	}
}

// TestSearchBackendAblationSameResults is the engine-level half of the
// backend parity property: the full BackDroid pipeline produces the same
// per-sink verdicts, entries and recovered values on either backend, and
// the indexed backend does strictly less charged search work.
func TestSearchBackendAblationSameResults(t *testing.T) {
	indexed := analyzeFixture(t, DefaultOptions())
	opts := DefaultOptions()
	opts.SearchBackend = bcsearch.BackendLinear
	linear := analyzeFixture(t, opts)

	assertSameVerdicts(t, "indexed-vs-linear", indexed, linear)

	// Same command stream, same cache behavior — only the backend cost
	// profile differs.
	is, ls := indexed.Stats.Search, linear.Stats.Search
	if is.Commands != ls.Commands || is.CacheHits != ls.CacheHits {
		t.Errorf("cache accounting differs across backends: %+v vs %+v", is, ls)
	}
	if ls.IndexBuilds != 0 || ls.PostingsScanned != 0 {
		t.Errorf("linear backend used the index: %+v", ls)
	}
	if is.IndexBuilds > 1 {
		t.Errorf("index built %d times, want at most once", is.IndexBuilds)
	}
	if is.LinesScanned >= ls.LinesScanned {
		t.Errorf("indexed backend scanned %d lines, linear %d — index not used",
			is.LinesScanned, ls.LinesScanned)
	}
	if indexed.Stats.WorkUnits >= linear.Stats.WorkUnits {
		t.Errorf("indexed work %d >= linear work %d — index not cheaper on the fixture",
			indexed.Stats.WorkUnits, linear.Stats.WorkUnits)
	}
}

// TestIndexedBackendNoRawScans pins that the indexed backend answers the
// full fixture pipeline from postings alone: every command kind is
// indexed, so no command costs an O(lines) scan.
func TestIndexedBackendNoRawScans(t *testing.T) {
	report := analyzeFixture(t, DefaultOptions())
	if got := report.Stats.Search.LinesScanned; got != 0 {
		t.Errorf("indexed pipeline scanned %d lines", got)
	}
	if report.Stats.Search.PostingsScanned == 0 {
		t.Error("no postings visited — search did not run")
	}
}

// TestWarmIndexCacheEngineRun pins the acceptance criterion end to end: a
// second engine over the same app with a persistent cache directory
// charges zero tokenization/index-build simtime and reports identical
// results for strictly less total work.
func TestWarmIndexCacheEngineRun(t *testing.T) {
	t.Run(bcsearch.BackendIndexed.String(), func(t *testing.T) {
		app, err := testapps.Fixture()
		if err != nil {
			t.Fatal(err)
		}
		opts := DefaultOptions()
		opts.IndexCacheDir = t.TempDir()
		analyze := func() *Report {
			e, err := New(app, opts)
			if err != nil {
				t.Fatal(err)
			}
			r, err := e.Analyze()
			if err != nil {
				t.Fatal(err)
			}
			return r
		}
		cold := analyze()
		if cs := cold.Stats.Search; cs.IndexBuilds != 1 || cs.IndexCacheMisses != 1 {
			t.Fatalf("cold stats = %+v, want one build after one miss", cs)
		}
		warm := analyze()
		ws := warm.Stats.Search
		if ws.IndexBuilds != 0 || ws.IndexLines != 0 {
			t.Errorf("warm run tokenized: %+v, want zero index-build work", ws)
		}
		if ws.IndexCacheHits != 1 {
			t.Errorf("warm run cache hits = %d, want 1", ws.IndexCacheHits)
		}
		assertSameVerdicts(t, "warm-cache", cold, warm)
		if warm.Stats.WorkUnits >= cold.Stats.WorkUnits {
			t.Errorf("warm work %d >= cold work %d — cache load not cheaper",
				warm.Stats.WorkUnits, cold.Stats.WorkUnits)
		}
	})
}
