package service

import (
	"sync/atomic"
	"testing"
	"time"

	"backdroid/internal/apk"
	"backdroid/internal/appgen"
	"backdroid/internal/core"
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

// runHeavyTail runs the heavy-tail corpus on the fleet cfg configures
// (SinkChunk < 0 disables stealing), with its queue depth and event
// stream set here. simtime.StealMinSinks applies, so only the outlier's
// tail is ever split.
//
// The outlier holds at its first meter checkpoint until every small job
// has settled and a node is idle again, so an idle node waits at each of
// the outlier's progress polls however busy the host is: a steal's
// precondition, made explicit instead of left to goroutine timing. The
// hold is wall time only; it charges nothing.
func runHeavyTail(t *testing.T, cfg Config) fleetRun {
	t.Helper()
	specs := stealTailSpecs()
	outlier := specs[0].Name
	events := make(chan Event, 16)
	run := fleetRun{
		keys:      make(map[string]string),
		terminals: make(map[JobID]int),
		started:   make(map[JobID]int),
		sources:   make(map[string]int),
	}
	smallsDone := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		smalls := 0
		for ev := range events {
			switch ev.Kind {
			case EventStarted:
				run.started[ev.Job]++
			case EventDone, EventFailed, EventCanceled:
				run.terminals[ev.Job]++
				if ev.Name != outlier {
					if smalls++; smalls == len(specs)-1 {
						close(smallsDone)
					}
				}
			}
		}
	}()
	cfg.QueueDepth = 2 * len(specs)
	cfg.Events = events
	s := New(cfg)
	var held atomic.Bool
	hold := core.DefaultOptions()
	hold.Checkpoint = func(int64, int64) bool {
		if !held.Load() {
			<-smallsDone
			for {
				s.mu.Lock()
				idle := s.workers > s.running
				s.mu.Unlock()
				if idle {
					break
				}
				time.Sleep(100 * time.Microsecond)
			}
			held.Store(true)
		}
		return false
	}
	sources := make([]atomic.Int32, len(specs))
	ids := make([]JobID, len(specs))
	for i, spec := range specs {
		job := Job{Name: spec.Name, RunBackDroid: true}
		src := sourceFor(spec)
		job.Source = func() (*apk.App, error) {
			sources[i].Add(1)
			return src()
		}
		if spec.Name == outlier {
			job.Options = &hold
		}
		id, err := s.Submit(job)
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
	for i, spec := range specs {
		run.sources[spec.Name] = int(sources[i].Load())
	}
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
	base := runHeavyTail(t, Config{Nodes: nodes, Store: NewBundleStore(0), SinkChunk: -1})
	if base.stats.Steals != 0 {
		t.Fatalf("no-steal run stole chunks: %+v", base.stats)
	}
	got := runHeavyTail(t, Config{Nodes: nodes, Store: NewBundleStore(0)})
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
	ref := runHeavyTail(t, Config{Nodes: nodes, Store: NewBundleStore(0)})
	got := runHeavyTail(t, Config{Nodes: nodes, Store: NewBundleStore(0),
		Faults: mustPlan(t, "kill:job=com.outlier.manysink@600")})
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

// TestFleetStealStorelessSharesSource: without a bundle store, the
// outlier's stolen chunks run on the victim's app and share its dump and
// index through the job's core.Shared handle, so every job's Source is
// called exactly once, and the union is still byte-identical to the
// unsplit run's.
func TestFleetStealStorelessSharesSource(t *testing.T) {
	const nodes = 4
	base := runHeavyTail(t, Config{Nodes: nodes, SinkChunk: -1})
	got := runHeavyTail(t, Config{Nodes: nodes})
	requireUnionParity(t, "storeless steal", base, got)
	if got.stats.Steals == 0 {
		t.Fatalf("no chunk stolen off the outlier: %+v", got.stats)
	}
	for name, n := range got.sources {
		if n != 1 {
			t.Errorf("%s: Source called %d times, want 1", name, n)
		}
	}
}
