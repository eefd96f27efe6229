package service

import (
	"testing"

	"backdroid/internal/appgen"
	"backdroid/internal/faultinject"
)

// stealTailSpecs is the scaled-down heavy-tail corpus of the steal
// tests: one 48-sink outlier first, then three light apps — big enough
// that the outlier grinds long after the smalls drain, small enough for
// the race detector.
func stealTailSpecs() []appgen.Spec {
	return appgen.HeavyTailCorpus(appgen.HeavyTailOptions{
		SmallApps: 3, Seed: 99, HeavySinks: 48, HeavySizeMB: 4,
	})
}

// runHeavyTail runs the heavy-tail corpus on a fleet, with sink-chunk
// stealing enabled (the default grain) or disabled (SinkChunk < 0).
// simtime.StealMinSinks applies, so only the outlier's tail is ever
// split.
func runHeavyTail(t *testing.T, nodes int, plan *faultinject.Plan, steal bool) fleetRun {
	t.Helper()
	specs := stealTailSpecs()
	events := make(chan Event, 16)
	run := fleetRun{
		keys:      make(map[string]string),
		terminals: make(map[JobID]int),
		started:   make(map[JobID]int),
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for ev := range events {
			switch ev.Kind {
			case EventStarted:
				run.started[ev.Job]++
			case EventDone, EventFailed, EventCanceled:
				run.terminals[ev.Job]++
			}
		}
	}()
	cfg := Config{
		Nodes:      nodes,
		Store:      NewBundleStore(0),
		Faults:     plan,
		QueueDepth: 2 * len(specs),
		Events:     events,
	}
	if !steal {
		cfg.SinkChunk = -1
	}
	s := New(cfg)
	ids := make([]JobID, len(specs))
	for i, spec := range specs {
		id, err := s.Submit(Job{Name: spec.Name, Source: sourceFor(spec), RunBackDroid: true})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	for i, id := range ids {
		res, err := s.Wait(id)
		if err != nil {
			t.Fatalf("job %d (%s): %v", id, specs[i].Name, err)
		}
		run.keys[res.Name] = detectionKey(res.BackDroid)
	}
	s.Close()
	run.stats = s.FleetStats()
	close(events)
	<-done
	return run
}

// TestFleetStealHeavyTail is the tentpole end to end: with 4 nodes and
// an outlier-dominated corpus, sink-chunk stealing fires, the stolen
// chunks' union is byte-identical to the unsplit run's reports, the
// steal counters account the moved work, and the charged makespan (the
// busiest node's odometer) shrinks — idle-node time converted directly
// into tail latency.
func TestFleetStealHeavyTail(t *testing.T) {
	const nodes = 4
	base := runHeavyTail(t, nodes, nil, false)
	if base.stats.Steals != 0 {
		t.Fatalf("no-steal run stole chunks: %+v", base.stats)
	}
	got := runHeavyTail(t, nodes, nil, true)
	requireUnionParity(t, "steal", base, got)
	st := got.stats
	if st.Steals == 0 {
		t.Fatalf("no chunk stolen off the outlier: %+v", st)
	}
	if st.StealVictims == 0 || st.StolenSinks == 0 || st.StealUnits == 0 {
		t.Fatalf("steal counters not accounted: %+v", st)
	}
	if st.MakespanUnits >= base.stats.MakespanUnits {
		t.Errorf("stealing did not shorten the charged makespan: %d vs %d without stealing",
			st.MakespanUnits, base.stats.MakespanUnits)
	}
	if st.Handoffs != 0 || st.Killed != 0 {
		t.Errorf("undisturbed steal run saw failures: %+v", st)
	}
}

// stealChaosCase is the kill-mid-steal scenario of the chaos matrix
// (registered under TestFleetChaosUnionParity so the CI kill matrix
// addresses it as TestFleetChaosUnionParity/steal-chaos): a node is
// killed while dispatches of the chunk-split outlier are in flight. The
// lost range degrades to a plain handoff — only that range re-runs on a
// surviving node — with the union still byte-identical and exactly one
// terminal per job.
func stealChaosCase(t *testing.T) {
	const nodes = 4
	ref := runHeavyTail(t, nodes, nil, true)
	got := runHeavyTail(t, nodes, mustPlan(t, "kill:job=com.outlier.manysink@600"), true)
	requireUnionParity(t, "steal-chaos", ref, got)
	st := got.stats
	if st.Killed != 1 {
		t.Errorf("killed = %d, want 1 (stats %+v)", st.Killed, st)
	}
	if st.Steals == 0 {
		t.Errorf("no steal fired around the kill: %+v", st)
	}
	if st.Handoffs == 0 || st.ExpiredLeases == 0 {
		t.Errorf("kill mid-steal did not degrade to a handoff: %+v", st)
	}
	if st.LostUnits == 0 || st.OverheadUnits == 0 {
		t.Errorf("lost/overhead units not charged: %+v", st)
	}
}
