package service

import (
	"strings"
	"sync"
	"testing"
	"time"

	"backdroid/internal/apk"
	"backdroid/internal/core"
	"backdroid/internal/service/journal"
)

// waitWithin waits for a job but fails the test instead of hanging when
// the scheduler wedges (a leaked lock would block Wait forever).
func waitWithin(t *testing.T, s *Scheduler, id JobID, d time.Duration) (*JobResult, error) {
	t.Helper()
	type result struct {
		res *JobResult
		err error
	}
	ch := make(chan result, 1)
	go func() {
		res, err := s.Wait(id)
		ch <- result{res, err}
	}()
	select {
	case r := <-ch:
		return r.res, r.err
	case <-time.After(d):
		t.Fatalf("job %d did not finish within %v", id, d)
		return nil, nil
	}
}

// TestSchedulerPanicFailsOneJob: a panic inside one job's attempt — its
// Source, or a job-supplied hook running mid-Analyze — fails that job
// alone. The lease is released, exactly one failed terminal naming the
// panic is journaled (so Recover never replays the job), the panic is
// counted in backdroid_job_panics_total, the fingerprint build lock the
// panicking run held is released, and the next job runs normally.
func TestSchedulerPanicFailsOneJob(t *testing.T) {
	sourcePanics := func(t *testing.T, cfg Config) {
		dir := t.TempDir()
		jnl, _, err := journal.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		var (
			mu    sync.Mutex
			kinds = map[string]int{}
			errs  []string
		)
		// The append hook observes every record written (nil keeps the
		// intact encoding).
		jnl.SetCorrupt(func(kind string, encoded []byte) []byte {
			mu.Lock()
			defer mu.Unlock()
			kinds[kind]++
			if kind == "failed" {
				errs = append(errs, string(encoded))
			}
			return nil
		})
		cfg.Journal = jnl
		s := New(cfg)
		bad, err := s.Submit(Job{Name: "com.panic.source", Spec: "bad", RunBackDroid: true,
			Source: func() (*apk.App, error) { panic("generator exploded") }})
		if err != nil {
			t.Fatal(err)
		}
		good, err := s.Submit(Job{Name: testSpec(0).Name, Spec: "good",
			Source: sourceFor(testSpec(0)), RunBackDroid: true})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := waitWithin(t, s, bad, time.Minute); err == nil ||
			!strings.Contains(err.Error(), "generator exploded") {
			t.Fatalf("panicking job: err = %v, want one naming the panic", err)
		}
		res, err := waitWithin(t, s, good, time.Minute)
		if err != nil || res.BackDroid == nil || len(res.BackDroid.Sinks) == 0 {
			t.Fatalf("job after the panic: res = %+v, err = %v", res, err)
		}
		if n, _ := s.Metrics().Snapshot().Get("backdroid_job_panics_total"); n != 1 {
			t.Errorf("backdroid_job_panics_total = %d, want 1", n)
		}
		s.Close()

		mu.Lock()
		if kinds["failed"] != 1 || kinds["done"] != 1 || kinds["canceled"] != 0 {
			t.Errorf("journaled terminals = %v, want one failed and one done", kinds)
		}
		if len(errs) == 1 && !strings.Contains(errs[0], "generator exploded") {
			t.Errorf("failed record does not name the panic: %q", errs[0])
		}
		mu.Unlock()
		if err := jnl.Close(); err != nil {
			t.Fatal(err)
		}
		jnl2, pending, err := journal.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer jnl2.Close()
		if len(pending) != 0 {
			t.Fatalf("journal still pends %d jobs after the panic", len(pending))
		}
		s2 := New(Config{Workers: 1, Journal: jnl2})
		defer s2.Close()
		if n := s2.Recover(func(journal.Record) (Job, bool) { return Job{}, false }); n != 0 {
			t.Fatalf("Recover replayed %d jobs", n)
		}
	}

	t.Run("source", func(t *testing.T) {
		sourcePanics(t, Config{Workers: 1})
	})

	t.Run("observer-holding-lock", func(t *testing.T) {
		// A one-byte store admits no bundle, so every run of the app is
		// cold and takes the fingerprint's build lock: a lock leaked by
		// the panicking run would block the resubmission forever.
		s := New(Config{Workers: 1, Store: NewBundleStore(1)})
		opts := core.DefaultOptions()
		opts.SinkObserver = func(*core.SinkReport) { panic("observer exploded") }
		bad, err := s.Submit(Job{Name: testSpec(1).Name, Source: sourceFor(testSpec(1)),
			Options: &opts, RunBackDroid: true})
		if err != nil {
			t.Fatal(err)
		}
		good, err := s.Submit(Job{Name: testSpec(1).Name, Source: sourceFor(testSpec(1)),
			RunBackDroid: true})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := waitWithin(t, s, bad, time.Minute); err == nil ||
			!strings.Contains(err.Error(), "observer exploded") {
			t.Fatalf("panicking job: err = %v, want one naming the panic", err)
		}
		res, err := waitWithin(t, s, good, time.Minute)
		if err != nil || res.BackDroid == nil || len(res.BackDroid.Sinks) == 0 {
			t.Fatalf("resubmission after the panic: res = %+v, err = %v", res, err)
		}
		s.Close()
	})

	t.Run("source-fleet", func(t *testing.T) {
		sourcePanics(t, Config{Nodes: 2})
	})
}
