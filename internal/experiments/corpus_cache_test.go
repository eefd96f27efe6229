package experiments

import (
	"testing"

	"backdroid/internal/appgen"
	"backdroid/internal/core"
)

// TestRunCorpusIndexCacheReuse pins the corpus-reuse contract of the
// persistent index cache: re-running the same corpus with the same cache
// directory performs zero index builds — every app loads its serialized
// index — while detection outcomes stay identical and total simulated
// work drops.
func TestRunCorpusIndexCacheReuse(t *testing.T) {
	dir := t.TempDir()
	opts := appgen.CorpusOptions{Apps: 6, Seed: 20260727, SizeScale: 0.08}
	bd := core.DefaultOptions()
	bd.IndexCacheDir = dir
	cfg := RunConfig{
		RunBackDroid:     true,
		BackDroidOptions: &bd,
		Workers:          3,
	}

	cold, err := RunCorpus(opts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := RunCorpus(opts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(cold.Apps) != len(warm.Apps) {
		t.Fatalf("app counts differ: %d vs %d", len(cold.Apps), len(warm.Apps))
	}

	var coldBuilds, warmBuilds, warmHits int
	var coldUnits, warmUnits int64
	for i := range cold.Apps {
		c, w := cold.Apps[i].BackDroid, warm.Apps[i].BackDroid
		coldBuilds += c.Stats.Search.IndexBuilds
		warmBuilds += w.Stats.Search.IndexBuilds
		warmHits += w.Stats.Search.IndexCacheHits
		coldUnits += c.Stats.WorkUnits
		warmUnits += w.Stats.WorkUnits

		if len(c.Sinks) != len(w.Sinks) {
			t.Fatalf("app %s: sink counts differ cold/warm", cold.Apps[i].Spec.Name)
		}
		for j := range c.Sinks {
			cs, ws := c.Sinks[j], w.Sinks[j]
			if cs.Call.String() != ws.Call.String() ||
				cs.Reachable != ws.Reachable || cs.Insecure != ws.Insecure {
				t.Errorf("app %s sink %d: cold/warm verdicts differ",
					cold.Apps[i].Spec.Name, j)
			}
		}
	}
	if coldBuilds == 0 {
		t.Fatal("cold run built no indexes — corpus too small to be meaningful")
	}
	if warmBuilds != 0 {
		t.Errorf("warm corpus run built %d indexes, want 0 (tokenization must be skipped)", warmBuilds)
	}
	if warmHits != coldBuilds {
		t.Errorf("warm cache hits = %d, cold builds = %d — every built index should be reused", warmHits, coldBuilds)
	}
	if warmUnits >= coldUnits {
		t.Errorf("warm corpus charged %d units, cold %d — cache must cut simulated work", warmUnits, coldUnits)
	}
}
