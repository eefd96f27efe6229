package experiments

import (
	"fmt"
	"testing"

	"backdroid/internal/appgen"
	"backdroid/internal/obs"
	"backdroid/internal/service"
)

func detectionSummary(run *CorpusRun) string {
	out := ""
	for _, a := range run.Apps {
		if a.BackDroid == nil {
			continue
		}
		out += fmt.Sprintf("== %s ==\n", a.BackDroid.App)
		for _, s := range a.BackDroid.Sinks {
			out += fmt.Sprintf("%s r=%v i=%v %v\n", s.Call, s.Reachable, s.Insecure, s.Values)
		}
	}
	return out
}

// TestRunCorpusSchedulerParity pins the thin-client refactor: a corpus
// run through an external scheduler (with a bundle store) produces the
// same detection report as the private-scheduler path, and replaying the
// corpus through the same scheduler performs zero disassembly and zero
// index builds.
func TestRunCorpusSchedulerParity(t *testing.T) {
	opts := appgen.CorpusOptions{Apps: 5, Seed: 99, SizeScale: 0.08}

	plain, err := RunCorpus(opts, RunConfig{RunBackDroid: true, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}

	sched := service.New(service.Config{Workers: 3, Store: service.NewBundleStore(0)})
	defer sched.Close()
	cfg := RunConfig{RunBackDroid: true, Scheduler: sched}
	first, err := RunCorpus(opts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	second, err := RunCorpus(opts, cfg)
	if err != nil {
		t.Fatal(err)
	}

	want := detectionSummary(plain)
	if got := detectionSummary(first); got != want {
		t.Fatal("scheduler first pass diverged from the plain RunCorpus path")
	}
	if got := detectionSummary(second); got != want {
		t.Fatal("scheduler replay diverged from the plain RunCorpus path")
	}

	for i, a := range second.Apps {
		st := a.BackDroid.Stats
		if st.DumpLinesDisassembled != 0 || st.Search.IndexBuilds != 0 {
			t.Fatalf("replayed app %d stats = %+v, want zero disassembly and zero builds", i, st)
		}
		if st.BundleStoreHits != 1 {
			t.Fatalf("replayed app %d missed the bundle store: %+v", i, st)
		}
		if st.WorkUnits >= first.Apps[i].BackDroid.Stats.WorkUnits {
			t.Fatalf("replayed app %d charged %d units, first pass %d — reuse must be cheaper",
				i, st.WorkUnits, first.Apps[i].BackDroid.Stats.WorkUnits)
		}
	}
}

// TestRunCorpusWorkerIndependenceThroughScheduler re-pins the
// determinism contract on the new scheduler substrate: any worker count,
// same corpus, bitwise-identical detection output.
func TestRunCorpusWorkerIndependenceThroughScheduler(t *testing.T) {
	opts := appgen.CorpusOptions{Apps: 4, Seed: 7, SizeScale: 0.08}
	var want string
	for _, workers := range []int{1, 2, 5} {
		run, err := RunCorpus(opts, RunConfig{RunBackDroid: true, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		got := detectionSummary(run)
		if want == "" {
			want = got
		} else if got != want {
			t.Fatalf("workers=%d changed the detection output", workers)
		}
	}
}

// TestRunCorpusTenantParity pins RunConfig.Tenant: two corpora submitted
// as different tenants of one multi-tenant scheduler each reproduce
// their private-run detection output bit for bit — fair dispatch
// reorders work, never results — and the per-tenant counters attribute
// every job to its stream.
func TestRunCorpusTenantParity(t *testing.T) {
	optsA := appgen.CorpusOptions{Apps: 4, Seed: 7, SizeScale: 0.08}
	optsB := appgen.CorpusOptions{Apps: 3, Seed: 8, SizeScale: 0.08}
	plainA, err := RunCorpus(optsA, RunConfig{RunBackDroid: true})
	if err != nil {
		t.Fatal(err)
	}
	plainB, err := RunCorpus(optsB, RunConfig{RunBackDroid: true})
	if err != nil {
		t.Fatal(err)
	}

	sched := service.New(service.Config{
		Workers: 2,
		Tenants: map[string]service.TenantConfig{"a": {Weight: 2}, "b": {Weight: 1}},
	})
	defer sched.Close()
	gotA, err := RunCorpus(optsA, RunConfig{RunBackDroid: true, Scheduler: sched, Tenant: "a"})
	if err != nil {
		t.Fatal(err)
	}
	gotB, err := RunCorpus(optsB, RunConfig{RunBackDroid: true, Scheduler: sched, Tenant: "b"})
	if err != nil {
		t.Fatal(err)
	}
	if detectionSummary(gotA) != detectionSummary(plainA) {
		t.Fatal("tenant a's corpus diverged from its private run")
	}
	if detectionSummary(gotB) != detectionSummary(plainB) {
		t.Fatal("tenant b's corpus diverged from its private run")
	}
	snap := sched.Metrics().Snapshot()
	counts := map[string]int64{}
	for _, name := range []string{"a", "b"} {
		counts[name], _ = snap.Get("backdroid_tenant_dispatched_total", obs.L("tenant", name))
	}
	if counts["a"] != int64(optsA.Apps) || counts["b"] != int64(optsB.Apps) {
		t.Fatalf("per-tenant dispatch counts = %v", counts)
	}
}
