package service

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"backdroid/internal/android"
	"backdroid/internal/apk"
	"backdroid/internal/appgen"
	"backdroid/internal/core"
	"backdroid/internal/dexdump"
)

// testSpec generates a small deterministic app spec.
func testSpec(i int) appgen.Spec {
	return appgen.Spec{
		Name:   fmt.Sprintf("com.sched.app%d", i),
		Seed:   int64(1000 + i),
		SizeMB: 0.4,
		Sinks: []appgen.SinkSpec{
			{Flow: appgen.FlowDirect, Rule: android.RuleCryptoECB, Insecure: true},
			{Flow: appgen.FlowThread, Rule: android.RuleCryptoECB},
		},
	}
}

func sourceFor(spec appgen.Spec) func() (*apk.App, error) {
	return func() (*apk.App, error) {
		app, _, err := appgen.Generate(spec)
		return app, err
	}
}

// detectionKey renders a report deterministically for comparisons.
func detectionKey(r *core.Report) string {
	out := ""
	for _, s := range r.Sinks {
		out += fmt.Sprintf("%s r=%v i=%v %v\n", s.Call, s.Reachable, s.Insecure, s.Values)
	}
	return out
}

func TestSchedulerRunsJobsAndWaits(t *testing.T) {
	s := New(Config{Workers: 4})
	defer s.Close()
	var ids []JobID
	for i := 0; i < 6; i++ {
		id, err := s.Submit(Job{Name: testSpec(i).Name, Source: sourceFor(testSpec(i)), RunBackDroid: true})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for i, id := range ids {
		res, err := s.Wait(id)
		if err != nil {
			t.Fatalf("job %d: %v", id, err)
		}
		if res.BackDroid == nil || res.Name != testSpec(i).Name {
			t.Fatalf("job %d result = %+v", id, res)
		}
		if len(res.BackDroid.Sinks) == 0 {
			t.Fatalf("job %d found no sinks", id)
		}
	}
	if _, err := s.Wait(999); err != ErrUnknownJob {
		t.Fatalf("Wait(unknown) = %v, want ErrUnknownJob", err)
	}
	// Wait is a join: the first Wait released the retained state, so a
	// long-running scheduler does not accumulate finished reports.
	if _, err := s.Wait(ids[0]); err != ErrUnknownJob {
		t.Fatalf("second Wait = %v, want ErrUnknownJob (state reaped)", err)
	}
	s.mu.Lock()
	retained := len(s.states)
	s.mu.Unlock()
	if retained != 0 {
		t.Fatalf("%d job states retained after every Wait", retained)
	}
}

func TestSchedulerForgetReapsFinishedJobs(t *testing.T) {
	block := make(chan struct{})
	s := New(Config{Workers: 1, QueueDepth: 4})
	defer s.Close()
	blocker, err := s.Submit(Job{Name: "blocker", Source: func() (*apk.App, error) {
		<-block
		return appgenApp(t, testSpec(0))
	}, RunBackDroid: true})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := s.Submit(Job{Name: "queued", Source: sourceFor(testSpec(1)), RunBackDroid: true})
	if err != nil {
		t.Fatal(err)
	}
	// Forget of pending/running jobs must refuse.
	if s.Forget(blocker) || s.Forget(queued) {
		t.Fatal("Forget succeeded on an unfinished job")
	}
	close(block)
	// The event-stream path: let both finish (join the later one), then
	// reap the earlier one without ever waiting on it.
	if _, err := s.Wait(queued); err != nil {
		t.Fatal(err)
	}
	if !s.Forget(blocker) {
		t.Fatal("Forget of a finished, un-waited job must succeed")
	}
	if s.Forget(blocker) {
		t.Fatal("double Forget must report unknown")
	}
	s.mu.Lock()
	retained := len(s.states)
	s.mu.Unlock()
	if retained != 0 {
		t.Fatalf("%d job states retained after reaping", retained)
	}
}

func TestSchedulerSubmitAfterClose(t *testing.T) {
	s := New(Config{Workers: 1})
	s.Close()
	if _, err := s.Submit(Job{Name: "late"}); err != ErrClosed {
		t.Fatalf("Submit after Close = %v, want ErrClosed", err)
	}
	// Close must be idempotent.
	s.Close()
}

func TestSchedulerCancelQueuedJob(t *testing.T) {
	// One worker, blocked on the first job, so later submissions stay
	// queued long enough to cancel deterministically.
	block := make(chan struct{})
	s := New(Config{Workers: 1, QueueDepth: 8})
	defer s.Close()
	first, err := s.Submit(Job{Name: "blocker", Source: func() (*apk.App, error) {
		<-block
		return appgenApp(t, testSpec(0))
	}, RunBackDroid: true})
	if err != nil {
		t.Fatal(err)
	}
	victim, err := s.Submit(Job{Name: "victim", Source: sourceFor(testSpec(1)), RunBackDroid: true})
	if err != nil {
		t.Fatal(err)
	}
	if !s.Cancel(victim) {
		t.Fatal("cancel of a queued job must succeed")
	}
	if s.Cancel(victim) {
		t.Fatal("double cancel must fail")
	}
	close(block)
	if _, err := s.Wait(victim); err != ErrCanceled {
		t.Fatalf("Wait(canceled) = %v, want ErrCanceled", err)
	}
	if _, err := s.Wait(first); err != nil {
		t.Fatalf("blocker job: %v", err)
	}
	if s.Cancel(first) {
		t.Fatal("cancel of a finished job must fail")
	}
}

func appgenApp(t *testing.T, spec appgen.Spec) (*apk.App, error) {
	t.Helper()
	app, _, err := appgen.Generate(spec)
	return app, err
}

// TestSchedulerStoreReuse pins the batch-reuse contract: re-submitting an
// app whose fingerprint the store holds performs zero disassembly, zero
// index builds and zero disk I/O, with an identical detection report.
func TestSchedulerStoreReuse(t *testing.T) {
	store := NewBundleStore(0)
	s := New(Config{Workers: 2, Store: store})
	defer s.Close()

	spec := testSpec(0)
	run := func() *core.Report {
		id, err := s.Submit(Job{Name: spec.Name, Source: sourceFor(spec), RunBackDroid: true})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Wait(id)
		if err != nil {
			t.Fatal(err)
		}
		return res.BackDroid
	}
	cold := run()
	warm := run()

	if cold.Stats.BundleStoreHits != 0 || cold.Stats.BundleStoreMisses != 1 {
		t.Fatalf("cold store stats = %+v, want one miss", cold.Stats)
	}
	if cold.Stats.DumpLinesDisassembled == 0 || cold.Stats.Search.IndexBuilds != 1 {
		t.Fatalf("cold run stats = %+v, want a real build", cold.Stats)
	}
	if warm.Stats.BundleStoreHits != 1 || warm.Stats.DumpLinesDisassembled != 0 || warm.Stats.Search.IndexBuilds != 0 {
		t.Fatalf("warm run stats = %+v, want a fully-warm store hit", warm.Stats)
	}
	if warm.Stats.WorkUnits >= cold.Stats.WorkUnits {
		t.Fatalf("warm charged %d units, cold %d — store reuse must be cheaper",
			warm.Stats.WorkUnits, cold.Stats.WorkUnits)
	}
	if detectionKey(cold) != detectionKey(warm) {
		t.Fatal("store reuse changed the detection report")
	}
	if st := store.stats(); st.Puts != 1 || st.Entries != 1 {
		t.Fatalf("store stats = %+v, want exactly one entry", st)
	}
}

// TestSchedulerConcurrentSameFingerprint pins the single-build guarantee:
// many concurrent submissions of one app serialize on the fingerprint
// lock, so the bundle is built exactly once and every later job runs
// fully warm off the shared entry.
func TestSchedulerConcurrentSameFingerprint(t *testing.T) {
	store := NewBundleStore(0)
	s := New(Config{Workers: 8, QueueDepth: 32, Store: store})
	defer s.Close()

	spec := testSpec(3)
	const jobs = 12
	ids := make([]JobID, jobs)
	for i := range ids {
		id, err := s.Submit(Job{Name: spec.Name, Source: sourceFor(spec), RunBackDroid: true})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	builds, storeHits := 0, 0
	var det string
	for _, id := range ids {
		res, err := s.Wait(id)
		if err != nil {
			t.Fatal(err)
		}
		st := res.BackDroid.Stats
		builds += st.Search.IndexBuilds
		storeHits += st.BundleStoreHits
		key := detectionKey(res.BackDroid)
		if det == "" {
			det = key
		} else if key != det {
			t.Fatal("concurrent submissions diverged in detection output")
		}
	}
	if builds != 1 {
		t.Fatalf("%d index builds across %d concurrent same-app jobs, want exactly 1", builds, jobs)
	}
	if storeHits != jobs-1 {
		t.Fatalf("%d store hits, want %d (every job but the builder)", storeHits, jobs-1)
	}
	if st := store.stats(); st.Puts != 1 {
		t.Fatalf("store stats = %+v, want a single build/put", st)
	}
}

// TestSchedulerEventStreamMatchesBatch pins streamed-vs-batch
// determinism: the EventSink stream of a job carries exactly the
// per-sink reports of its final batch report, in report order, bracketed
// by queued/started/done.
func TestSchedulerEventStreamMatchesBatch(t *testing.T) {
	events := make(chan Event, 256)
	s := New(Config{Workers: 2, Events: events})

	specs := []appgen.Spec{testSpec(0), testSpec(1), testSpec(2)}
	ids := make([]JobID, len(specs))
	results := make(map[JobID]*core.Report)
	for i, spec := range specs {
		id, err := s.Submit(Job{Name: spec.Name, Source: sourceFor(spec), RunBackDroid: true})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	for _, id := range ids {
		res, err := s.Wait(id)
		if err != nil {
			t.Fatal(err)
		}
		results[id] = res.BackDroid
	}
	s.Close()
	close(events)

	streamed := make(map[JobID][]Event)
	for ev := range events {
		streamed[ev.Job] = append(streamed[ev.Job], ev)
	}
	for _, id := range ids {
		evs := streamed[id]
		if len(evs) < 3 {
			t.Fatalf("job %d emitted %d events, want >= 3", id, len(evs))
		}
		if evs[0].Kind != EventQueued || evs[1].Kind != EventStarted || evs[len(evs)-1].Kind != EventDone {
			t.Fatalf("job %d event bracket = %v...%v", id, evs[0].Kind, evs[len(evs)-1].Kind)
		}
		var sinks []*core.SinkReport
		for _, ev := range evs[2 : len(evs)-1] {
			if ev.Kind != EventSink {
				t.Fatalf("job %d unexpected mid-stream event %v", id, ev.Kind)
			}
			sinks = append(sinks, ev.Sink)
		}
		batch := results[id].Sinks
		if len(sinks) != len(batch) {
			t.Fatalf("job %d streamed %d sinks, batch has %d", id, len(sinks), len(batch))
		}
		for j := range batch {
			if sinks[j] != batch[j] {
				t.Fatalf("job %d sink %d: streamed report is not the batch report", id, j)
			}
		}
	}
}

// TestSchedulerStoreEvictionStaysCorrect runs apps through a store too
// small for all of them: evictions must occur, and every analysis must
// still be correct (a miss is never an error, just a rebuild).
func TestSchedulerStoreEvictionStaysCorrect(t *testing.T) {
	// First learn one bundle's size, then budget for ~1.5 bundles.
	probe := NewBundleStore(0)
	{
		s := New(Config{Workers: 1, Store: probe})
		id, _ := s.Submit(Job{Name: "probe", Source: sourceFor(testSpec(0)), RunBackDroid: true})
		if _, err := s.Wait(id); err != nil {
			t.Fatal(err)
		}
		s.Close()
	}
	size := probe.stats().Bytes
	store := NewBundleStore(size + size/2)
	s := New(Config{Workers: 1, Store: store})
	defer s.Close()

	baseline := make(map[int]string)
	for round := 0; round < 2; round++ {
		for i := 0; i < 3; i++ {
			id, err := s.Submit(Job{Name: testSpec(i).Name, Source: sourceFor(testSpec(i)), RunBackDroid: true})
			if err != nil {
				t.Fatal(err)
			}
			res, err := s.Wait(id)
			if err != nil {
				t.Fatal(err)
			}
			key := detectionKey(res.BackDroid)
			if round == 0 {
				baseline[i] = key
			} else if baseline[i] != key {
				t.Fatalf("app %d verdicts changed across eviction churn", i)
			}
		}
	}
	if st := store.stats(); st.Evictions == 0 {
		t.Fatalf("store stats = %+v, want evictions under a tight budget", st)
	}
}

// TestSchedulerBoundedQueueBackpressure pins that Submit blocks (rather
// than dropping or erroring) when the queue is full, and unblocks as
// workers drain.
func TestSchedulerBoundedQueueBackpressure(t *testing.T) {
	block := make(chan struct{})
	s := New(Config{Workers: 1, QueueDepth: 1})
	defer s.Close()
	// Occupy the worker.
	first, err := s.Submit(Job{Name: "blocker", Source: func() (*apk.App, error) {
		<-block
		return appgenApp(t, testSpec(0))
	}, RunBackDroid: true})
	if err != nil {
		t.Fatal(err)
	}
	// Fill the queue slot.
	if _, err := s.Submit(Job{Name: "queued", Source: sourceFor(testSpec(1)), RunBackDroid: true}); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	submitted := false
	done := make(chan JobID)
	go func() {
		id, err := s.Submit(Job{Name: "overflow", Source: sourceFor(testSpec(2)), RunBackDroid: true})
		if err != nil {
			t.Error(err)
		}
		mu.Lock()
		submitted = true
		mu.Unlock()
		done <- id
	}()
	mu.Lock()
	early := submitted
	mu.Unlock()
	if early {
		t.Fatal("third submit must block on the full queue")
	}
	close(block)
	id := <-done
	if _, err := s.Wait(id); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(first); err != nil {
		t.Fatal(err)
	}
}

// TestSchedulerFailedSourceEmitsError pins the failure path: a bad source
// fails its own job only.
func TestSchedulerFailedSourceEmitsError(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	bad, err := s.Submit(Job{Name: "bad", Source: func() (*apk.App, error) {
		return nil, fmt.Errorf("boom")
	}, RunBackDroid: true})
	if err != nil {
		t.Fatal(err)
	}
	good, err := s.Submit(Job{Name: "good", Source: sourceFor(testSpec(1)), RunBackDroid: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(bad); err == nil {
		t.Fatal("bad source must fail its job")
	}
	if _, err := s.Wait(good); err != nil {
		t.Fatalf("good job after a failed one: %v", err)
	}
}

// TestStoreSharesAcrossDifferentJobNames pins content addressing: two
// jobs with different names but identical bytecode share one entry.
func TestStoreSharesAcrossDifferentJobNames(t *testing.T) {
	store := NewBundleStore(0)
	s := New(Config{Workers: 1, Store: store})
	defer s.Close()

	spec := testSpec(5)
	app1, _, err := appgen.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	app2, _, err := appgen.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	if dexdump.AppFingerprint(app1.Dexes) != dexdump.AppFingerprint(app2.Dexes) {
		t.Fatal("identical specs must produce identical fingerprints")
	}
	app2.Name = "com.sched.renamed"

	id1, _ := s.Submit(Job{Name: app1.Name, Source: func() (*apk.App, error) { return app1, nil }, RunBackDroid: true})
	if _, err := s.Wait(id1); err != nil {
		t.Fatal(err)
	}
	id2, _ := s.Submit(Job{Name: app2.Name, Source: func() (*apk.App, error) { return app2, nil }, RunBackDroid: true})
	res, err := s.Wait(id2)
	if err != nil {
		t.Fatal(err)
	}
	if res.BackDroid.Stats.BundleStoreHits != 1 {
		t.Fatalf("renamed identical app stats = %+v, want a store hit (content addressing)", res.BackDroid.Stats)
	}
}

// TestSubmitCloseRaceNeverStrandsJobs hammers the Submit/Close window: a
// submit that returns an ID must always produce a joinable job, even
// when Close lands between the submit's admission check and its queue
// append — the last worker may not exit while a submit is mid-flight.
func TestSubmitCloseRaceNeverStrandsJobs(t *testing.T) {
	for round := 0; round < 50; round++ {
		s := New(Config{Workers: 1, QueueDepth: 4})
		type accepted struct {
			id  JobID
			err error
		}
		results := make(chan accepted, 4)
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				id, err := s.Submit(Job{Name: "r", Source: sourceFor(testSpec(g)), RunBackDroid: true})
				results <- accepted{id, err}
			}(g)
		}
		s.Close()
		wg.Wait()
		close(results)
		for r := range results {
			if r.err != nil {
				continue // rejected by Close: fine
			}
			done := make(chan struct{})
			go func() {
				defer close(done)
				if _, err := s.Wait(r.id); err != nil {
					t.Errorf("accepted job %d: %v", r.id, err)
				}
			}()
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatalf("round %d: accepted job %d stranded — Wait hangs", round, r.id)
			}
		}
	}
}
