package service

import (
	"sync"
	"testing"

	"backdroid/internal/apk"
	"backdroid/internal/appgen"
	"backdroid/internal/core"
	"backdroid/internal/obs"
	"backdroid/internal/simtime"
)

// collectEvents drains an event channel into a per-job slice map.
func collectEvents(wg *sync.WaitGroup, events <-chan Event, mu *sync.Mutex, byJob map[JobID][]EventKind) {
	defer wg.Done()
	for ev := range events {
		mu.Lock()
		byJob[ev.Job] = append(byJob[ev.Job], ev.Kind)
		mu.Unlock()
	}
}

// TestCancelRunningJobDeterminism pins the in-flight cancellation
// contract: canceling a running job emits exactly one terminal event
// (canceled), no sink events follow it, Wait returns ErrCanceled with no
// result, and the engine stops — the job's gate guarantees the cancel is
// registered while the job is provably running.
func TestCancelRunningJobDeterminism(t *testing.T) {
	events := make(chan Event, 64)
	var wg sync.WaitGroup
	var mu sync.Mutex
	byJob := make(map[JobID][]EventKind)
	wg.Add(1)
	go collectEvents(&wg, events, &mu, byJob)

	s := New(Config{Workers: 1, Events: events})
	started := make(chan struct{})
	release := make(chan struct{})
	// A heavy app, so the analysis that follows the gate has plenty of
	// work to cancel out of.
	spec := appgen.ManySinkOutlierSpec(42)
	id, err := s.Submit(Job{Name: "victim", Source: func() (*apk.App, error) {
		close(started)
		<-release
		return appgenApp(t, spec)
	}, RunBackDroid: true})
	if err != nil {
		t.Fatal(err)
	}
	<-started // the job is on the worker: started=true, engine not yet built
	if !s.Cancel(id) {
		t.Fatal("cancel of a running job must register")
	}
	if s.Cancel(id) {
		t.Fatal("double cancel of a running job must report false")
	}
	close(release)

	res, err := s.Wait(id)
	if err != ErrCanceled {
		t.Fatalf("Wait(canceled running job) = %v, want ErrCanceled", err)
	}
	if res != nil {
		t.Fatalf("canceled job returned a result: %+v", res)
	}
	s.Close()
	close(events)
	wg.Wait()

	seq := byJob[id]
	want := []EventKind{EventQueued, EventStarted, EventCanceled}
	if len(seq) != len(want) {
		t.Fatalf("event sequence = %v, want %v (single terminal, no sinks)", seq, want)
	}
	for i := range want {
		if seq[i] != want[i] {
			t.Fatalf("event sequence = %v, want %v", seq, want)
		}
	}
}

// TestCancelManyRunningJobsConcurrently hammers the cancel path under
// the race detector: every job gets exactly one terminal event and the
// scheduler shuts down cleanly.
func TestCancelManyRunningJobsConcurrently(t *testing.T) {
	const jobs = 8
	events := make(chan Event, 256)
	var wg sync.WaitGroup
	var mu sync.Mutex
	byJob := make(map[JobID][]EventKind)
	wg.Add(1)
	go collectEvents(&wg, events, &mu, byJob)

	s := New(Config{Workers: jobs, QueueDepth: jobs, Events: events})
	var startedWG sync.WaitGroup
	release := make(chan struct{})
	ids := make([]JobID, jobs)
	spec := appgen.ManySinkOutlierSpec(7)
	for i := 0; i < jobs; i++ {
		startedWG.Add(1)
		id, err := s.Submit(Job{Name: "victim", Source: func() (*apk.App, error) {
			startedWG.Done()
			<-release
			return appgenApp(t, spec)
		}, RunBackDroid: true})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	startedWG.Wait() // every job is on a worker
	var cancelWG sync.WaitGroup
	for _, id := range ids {
		cancelWG.Add(1)
		go func(id JobID) {
			defer cancelWG.Done()
			if !s.Cancel(id) {
				t.Errorf("cancel of running job %d failed", id)
			}
		}(id)
	}
	cancelWG.Wait()
	close(release)
	for _, id := range ids {
		if _, err := s.Wait(id); err != ErrCanceled {
			t.Fatalf("job %d: Wait = %v, want ErrCanceled", id, err)
		}
	}
	s.Close()
	close(events)
	wg.Wait()

	for _, id := range ids {
		terminals := 0
		for _, k := range byJob[id] {
			switch k {
			case EventDone, EventFailed, EventCanceled:
				terminals++
				if k != EventCanceled {
					t.Fatalf("job %d terminal = %v, want canceled", id, k)
				}
			case EventSink:
				t.Fatalf("job %d streamed a sink event after cancel", id)
			}
		}
		if terminals != 1 {
			t.Fatalf("job %d emitted %d terminal events: %v", id, terminals, byJob[id])
		}
	}
}

// TestCancelChargesOnlyWorkDone pins the accounting contract at the
// engine level through the scheduler: a canceled run is aborted by the
// meter within one checkpoint, so the work the engine performed before
// the cancel is the work that was charged — verified here by the analysis
// returning simtime.ErrCanceled rather than completing a report.
func TestCancelChargesOnlyWorkDone(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	started := make(chan struct{})
	release := make(chan struct{})
	id, err := s.Submit(Job{Name: "victim", Source: func() (*apk.App, error) {
		close(started)
		<-release
		return appgenApp(t, testSpec(3))
	}, RunBackDroid: true})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if !s.Cancel(id) {
		t.Fatal("cancel must register")
	}
	close(release)
	if _, err := s.Wait(id); err != ErrCanceled {
		t.Fatalf("Wait = %v, want ErrCanceled", err)
	}
	// The cancellation error the engine layer uses is distinct from a
	// timeout, so TimedOut reports can never absorb a kill.
	if simtime.ErrCanceled == simtime.ErrTimeout {
		t.Fatal("sentinel errors must be distinct")
	}
}

// TestCancelQueuedThenRunningCountersSplit pins the stats split: queued
// cancels and running cancels are counted separately per tenant.
func TestCancelQueuedThenRunningCountersSplit(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 8})
	started := make(chan struct{})
	release := make(chan struct{})
	running, err := s.Submit(Job{Name: "running", Tenant: "acme", Source: func() (*apk.App, error) {
		close(started)
		<-release
		return appgenApp(t, testSpec(0))
	}, RunBackDroid: true})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := s.Submit(Job{Name: "queued", Tenant: "acme", Source: sourceFor(testSpec(1)), RunBackDroid: true})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if !s.Cancel(queued) || !s.Cancel(running) {
		t.Fatal("both cancels must register")
	}
	close(release)
	if _, err := s.Wait(running); err != ErrCanceled {
		t.Fatalf("running job Wait = %v", err)
	}
	if _, err := s.Wait(queued); err != ErrCanceled {
		t.Fatalf("queued job Wait = %v", err)
	}
	s.Close()
	snap := s.Metrics().Snapshot()
	acme := obs.L("tenant", "acme")
	queuedN, okQ := snap.Get("backdroid_tenant_canceled_queued_total", acme)
	runningN, okR := snap.Get("backdroid_tenant_canceled_running_total", acme)
	if !okQ || !okR {
		t.Fatal("tenant acme missing from the metrics")
	}
	if queuedN != 1 || runningN != 1 {
		t.Fatalf("acme cancels: %d queued, %d running, want 1 and 1", queuedN, runningN)
	}
}

// TestJobCheckpointRunsAfterScheduler pins the order of the one meter
// hook in fleet mode: a job-supplied Checkpoint runs after the
// scheduler's own (the trace counter sample and the fleet tick already
// hold the checkpoint it sees), with the engine's cumulative units, and
// its true return ends the job as canceled with exactly one terminal
// record.
func TestJobCheckpointRunsAfterScheduler(t *testing.T) {
	events := make(chan Event, 64)
	var wg sync.WaitGroup
	var mu sync.Mutex
	byJob := make(map[JobID][]EventKind)
	wg.Add(1)
	go collectEvents(&wg, events, &mu, byJob)

	tr := obs.NewTrace()
	// Stealing off: the job runs as one dispatch, so the fleet clock and
	// the counter track are this job's alone.
	s := New(Config{Nodes: 2, Store: NewBundleStore(0), SinkChunk: -1, Trace: tr, Events: events})
	const stopAt = 4
	var calls int
	var sum int64
	opts := core.DefaultOptions()
	opts.Checkpoint = func(units, delta int64) bool {
		calls++
		sum += delta
		if units != sum {
			t.Errorf("checkpoint %d: units %d, want the cumulative %d", calls, units, sum)
		}
		if cs := tr.Counters(); len(cs) != calls || cs[len(cs)-1].Value != units {
			t.Errorf("checkpoint %d: trace sample not recorded before the job hook (%d samples)", calls, len(cs))
		}
		if clock := s.FleetStats().Clock; clock != units {
			t.Errorf("checkpoint %d: fleet clock %d, want %d (tick not run before the job hook)", calls, clock, units)
		}
		return calls == stopAt
	}
	spec := appgen.ManySinkOutlierSpec(42)
	id, err := s.Submit(Job{Name: "watched", Source: sourceFor(spec), RunBackDroid: true, Options: &opts})
	if err != nil {
		t.Fatal(err)
	}
	if res, err := s.Wait(id); err != ErrCanceled || res != nil {
		t.Fatalf("Wait = %v, %v; want no result and ErrCanceled", res, err)
	}
	s.Close()
	close(events)
	wg.Wait()

	if calls != stopAt {
		t.Fatalf("job hook ran %d times, want %d (the run must stop at the true return)", calls, stopAt)
	}
	terminals := 0
	for _, k := range byJob[id] {
		switch k {
		case EventDone, EventFailed:
			t.Fatalf("event sequence %v: want canceled, not %v", byJob[id], k)
		case EventCanceled:
			terminals++
		}
	}
	if terminals != 1 {
		t.Fatalf("event sequence %v: want exactly one canceled terminal", byJob[id])
	}
}
