package service

import (
	"fmt"
	"sync"
	"testing"

	"backdroid/internal/apk"
)

// startOrder runs one blocked-worker scenario: a blocker job occupies the
// single worker while jobs queue up under their tenants, then the blocker
// releases and the started-event order of the remaining jobs is returned.
func startOrder(t *testing.T, tenants map[string]TenantConfig, submit func(s *Scheduler)) []string {
	t.Helper()
	events := make(chan Event, 256)
	var wg sync.WaitGroup
	var order []string
	wg.Add(1)
	go func() {
		defer wg.Done()
		for ev := range events {
			if ev.Kind == EventStarted && ev.Name != "blocker" {
				order = append(order, ev.Name)
			}
		}
	}()

	block := make(chan struct{})
	s := New(Config{Workers: 1, QueueDepth: 64, Tenants: tenants, Events: events})
	if _, err := s.Submit(Job{Name: "blocker", Source: func() (*apk.App, error) {
		<-block
		return appgenApp(t, testSpec(0))
	}, RunBackDroid: true}); err != nil {
		t.Fatal(err)
	}
	submit(s)
	close(block)
	s.Close()
	close(events)
	wg.Wait()
	return order
}

// submitN queues n trivial jobs named <tenant>-<i> under the tenant.
func submitN(t *testing.T, s *Scheduler, tenant string, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("%s-%d", tenant, i)
		spec := testSpec(i)
		if _, err := s.Submit(Job{
			Name: name, Tenant: tenant,
			Source: sourceFor(spec), RunBackDroid: true,
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTenantFairDispatchInterleaves pins the head-of-line-blocking fix:
// with equal weights, a tenant that queued a large backlog first cannot
// monopolize dispatch — the second tenant's jobs interleave 1:1, so its
// i-th job is dispatched within 2i+1 slots instead of after the whole
// backlog.
func TestTenantFairDispatchInterleaves(t *testing.T) {
	order := startOrder(t, nil, func(s *Scheduler) {
		submitN(t, s, "heavy", 6)
		submitN(t, s, "light", 3)
	})
	if len(order) != 9 {
		t.Fatalf("started %d jobs, want 9: %v", len(order), order)
	}
	lightSeen := 0
	for pos, name := range order {
		if name[:5] == "light" {
			lightSeen++
			if pos+1 > 2*lightSeen+1 {
				t.Fatalf("light job %d dispatched at slot %d (> fairness bound %d): %v",
					lightSeen, pos+1, 2*lightSeen+1, order)
			}
		}
	}
	if lightSeen != 3 {
		t.Fatalf("light jobs started = %d, want 3: %v", lightSeen, order)
	}
}

// TestTenantWeightedDispatchRatio pins the weighted policy: a weight-3
// tenant gets up to three dispatches per round against a weight-1 tenant,
// never more.
func TestTenantWeightedDispatchRatio(t *testing.T) {
	tenants := map[string]TenantConfig{
		"paid": {Weight: 3},
		"free": {Weight: 1},
	}
	order := startOrder(t, tenants, func(s *Scheduler) {
		submitN(t, s, "free", 3)
		submitN(t, s, "paid", 9)
	})
	if len(order) != 12 {
		t.Fatalf("started %d jobs, want 12: %v", len(order), order)
	}
	paidRun := 0
	freeSeen := 0
	for _, name := range order {
		if name[:4] == "paid" {
			paidRun++
			if paidRun > 3 && freeSeen < 3 {
				t.Fatalf("more than 3 paid dispatches between free jobs: %v", order)
			}
		} else {
			freeSeen++
			paidRun = 0
		}
	}
}

// TestTenantDispatchDeterministic pins that the WRR order is a pure
// function of the queue contents: the same scenario dispatches in the
// same order on every run.
func TestTenantDispatchDeterministic(t *testing.T) {
	scenario := func() []string {
		return startOrder(t, map[string]TenantConfig{"a": {Weight: 2}}, func(s *Scheduler) {
			submitN(t, s, "a", 4)
			submitN(t, s, "b", 4)
			submitN(t, s, "c", 2)
		})
	}
	first := scenario()
	for i := 0; i < 3; i++ {
		if got := scenario(); fmt.Sprint(got) != fmt.Sprint(first) {
			t.Fatalf("dispatch order varies across runs:\n%v\nvs\n%v", first, got)
		}
	}
}

// TestTenantQueueIsolation pins per-tenant backpressure: one tenant's
// full queue blocks only that tenant's submitters.
func TestTenantQueueIsolation(t *testing.T) {
	block := make(chan struct{})
	s := New(Config{
		Workers:    1,
		QueueDepth: 1,
	})
	defer s.Close()
	if _, err := s.Submit(Job{Name: "blocker", Source: func() (*apk.App, error) {
		<-block
		return appgenApp(t, testSpec(0))
	}, RunBackDroid: true}); err != nil {
		t.Fatal(err)
	}
	// Fill tenant "small"'s single queue slot.
	if _, err := s.Submit(Job{Name: "s1", Tenant: "small", Source: sourceFor(testSpec(1)), RunBackDroid: true}); err != nil {
		t.Fatal(err)
	}
	// Its next submit must block...
	overflowDone := make(chan struct{})
	go func() {
		defer close(overflowDone)
		if _, err := s.Submit(Job{Name: "s2", Tenant: "small", Source: sourceFor(testSpec(2)), RunBackDroid: true}); err != nil {
			t.Error(err)
		}
	}()
	select {
	case <-overflowDone:
		t.Fatal("submit into a full tenant queue returned without blocking")
	default:
	}
	// ...while another tenant's submit sails through.
	otherID, err := s.Submit(Job{Name: "other", Tenant: "big", Source: sourceFor(testSpec(3)), RunBackDroid: true})
	if err != nil {
		t.Fatalf("other tenant's submit was blocked by the full queue: %v", err)
	}
	close(block)
	<-overflowDone
	if _, err := s.Wait(otherID); err != nil {
		t.Fatal(err)
	}
}

// TestTenantsShareTheStore pins the one bundle-store policy: every
// tenant analyzes against Config.Store, so a second tenant warms up from
// the first one's bundle. Detection output is identical — stores change
// cost, never results.
func TestTenantsShareTheStore(t *testing.T) {
	s := New(Config{Workers: 1, Store: NewBundleStore(0)})
	defer s.Close()
	spec := testSpec(7)
	run := func(tenant string) *JobResult {
		id, err := s.Submit(Job{Name: spec.Name, Tenant: tenant, Source: sourceFor(spec), RunBackDroid: true})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Wait(id)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	a := run("sharedA")
	b := run("sharedB")

	if st := a.BackDroid.Stats; st.BundleStoreMisses != 1 {
		t.Fatalf("first tenant's job: %+v, want a store miss", st)
	}
	if st := b.BackDroid.Stats; st.BundleStoreHits != 1 {
		t.Fatalf("second tenant must warm up from the shared store: %+v", st)
	}
	if detectionKey(b.BackDroid) != detectionKey(a.BackDroid) {
		t.Fatal("the store hit changed the detection output")
	}

	// Tenants are created on first use: exactly the two submitted to.
	counters := map[string]int{"backdroid_tenant_submitted_total": 0, "backdroid_tenant_dispatched_total": 1, "backdroid_tenant_queued": 2}
	tenants := map[string][3]int64{}
	for _, m := range s.Metrics().Snapshot() {
		if i, ok := counters[m.Name]; ok {
			v := tenants[m.Labels[0].Value]
			v[i] = m.Value
			tenants[m.Labels[0].Value] = v
		}
	}
	if len(tenants) != 2 {
		t.Fatalf("tenants in the metrics = %v, want 2", tenants)
	}
	for name, v := range tenants {
		if v != [3]int64{1, 1, 0} {
			t.Fatalf("tenant %s: submitted, dispatched, queued = %v, want 1, 1, 0", name, v)
		}
	}
}
