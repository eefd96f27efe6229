package service

import (
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"backdroid/internal/android"
	"backdroid/internal/appgen"
	"backdroid/internal/faultinject"
	"backdroid/internal/obs"
	"backdroid/internal/service/journal"
)

// mustPlan parses a fault spec or fails the test.
func mustPlan(t *testing.T, spec string) *faultinject.Plan {
	t.Helper()
	p, err := faultinject.Parse(spec)
	if err != nil {
		t.Fatalf("Parse(%q): %v", spec, err)
	}
	return p
}

// chaosSpec generates an app heavy enough (~640 work units at 4 MB)
// that a single attempt out-lives the lease TTL (simtime.LeaseTTLUnits
// = 512): lease expiry and mid-job kills need jobs whose metered run
// crosses several heartbeat checkpoints, where the scheduler tests'
// light testSpec apps finish in ~3.
func chaosSpec(i int) appgen.Spec {
	return appgen.Spec{
		Name:   fmt.Sprintf("com.chaos.app%d", i),
		Seed:   int64(4200 + i),
		SizeMB: 4,
		Sinks: []appgen.SinkSpec{
			{Flow: appgen.FlowDirect, Rule: android.RuleCryptoECB, Insecure: true},
			{Flow: appgen.FlowThread, Rule: android.RuleCryptoECB},
		},
	}
}

// chaosFromJournal rebuilds a chaos-corpus job from its journal record
// (Spec "chaos:N"), the fleet counterpart of specFromJournal.
func chaosFromJournal(rec journal.Record) (Job, bool) {
	i, err := strconv.Atoi(strings.TrimPrefix(rec.Spec, "chaos:"))
	if err != nil {
		return Job{}, false
	}
	return Job{
		Name: rec.Name, Tenant: rec.Tenant, Spec: rec.Spec,
		Source: sourceFor(chaosSpec(i)), RunBackDroid: true,
	}, true
}

// fleetRun is the outcome of one corpus run on a fleet: the per-app
// detection union, the terminal-event count per job (the at-most-once
// ledger), and the fleet counters after Close.
type fleetRun struct {
	keys      map[string]string // app name -> detection key
	terminals map[JobID]int     // terminal events observed per job
	started   map[JobID]int     // started events per job (attempts)
	sources   map[string]int    // Source calls per app (runHeavyTail only)
	stats     *FleetStats
}

// runFleetCorpus submits apps 0..n-1 on a fresh fleet scheduler and
// drains it. Faults may kill nodes mid-run; every job must still settle
// exactly once with a correct report unless the plan kills every node.
func runFleetCorpus(t *testing.T, nodes, n int, plan *faultinject.Plan, jnl *journal.Journal) fleetRun {
	t.Helper()
	events := make(chan Event, 16)
	run := fleetRun{
		keys:      make(map[string]string),
		terminals: make(map[JobID]int),
		started:   make(map[JobID]int),
	}
	var evWG sync.WaitGroup
	evWG.Add(1)
	go func() {
		defer evWG.Done()
		for ev := range events {
			switch ev.Kind {
			case EventStarted:
				run.started[ev.Job]++
			case EventDone, EventFailed, EventCanceled:
				run.terminals[ev.Job]++
			}
		}
	}()
	s := New(Config{
		Nodes:      nodes,
		Store:      NewBundleStore(0),
		Faults:     plan,
		Journal:    jnl,
		QueueDepth: 2 * n,
		Events:     events,
	})
	ids := make([]JobID, n)
	for i := 0; i < n; i++ {
		id, err := s.Submit(Job{
			Name: chaosSpec(i).Name, Spec: fmt.Sprintf("chaos:%d", i),
			Source: sourceFor(chaosSpec(i)), RunBackDroid: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	for i, id := range ids {
		res, err := s.Wait(id)
		if err != nil {
			t.Fatalf("job %d (%s): %v", id, chaosSpec(i).Name, err)
		}
		run.keys[res.Name] = detectionKey(res.BackDroid)
	}
	s.Close()
	run.stats = s.FleetStats()
	close(events)
	evWG.Wait()
	return run
}

// requireUnionParity checks the chaos invariant: the detection-report
// union of a faulted run is byte-identical to the reference, and every
// job settled exactly once.
func requireUnionParity(t *testing.T, name string, ref, got fleetRun) {
	t.Helper()
	if len(got.keys) != len(ref.keys) {
		t.Fatalf("%s: %d reports, reference has %d", name, len(got.keys), len(ref.keys))
	}
	for app, want := range ref.keys {
		if got.keys[app] != want {
			t.Fatalf("%s: report for %s diverged under faults:\n%s\nvs reference\n%s",
				name, app, got.keys[app], want)
		}
	}
	for id, c := range got.terminals {
		if c != 1 {
			t.Fatalf("%s: job %d emitted %d terminal events, want exactly 1", name, id, c)
		}
	}
}

// TestFleetChaosUnionParity is the kill matrix: a node dying mid-queue
// (between jobs), mid-job (at a metered checkpoint) and mid-handoff
// (the re-dispatched attempt killed again) must each leave the
// detection-report union byte-identical to an undisturbed run, with
// exactly one terminal event per job.
func TestFleetChaosUnionParity(t *testing.T) {
	const nodes, apps = 3, 6
	ref := runFleetCorpus(t, nodes, apps, nil, nil)
	if ref.stats.Killed != 0 || ref.stats.Handoffs != 0 {
		t.Fatalf("reference run injected faults: %+v", ref.stats)
	}
	cases := []struct {
		name, spec    string
		wantKilled    int
		wantHandoffs  int64
		wantRestarted bool // a job observed > 1 started events
	}{
		// Node 2 dies before pulling its first job: no lease is lost, the
		// survivors absorb the queue.
		{"mid-queue", "kill:node=2@0", 1, 0, false},
		// The node running app1's first attempt dies at its checkpoint
		// past 64 units: lease expires, one handoff, attempt 2 survives.
		{"mid-job", "kill:job=com.chaos.app1@64", 1, 1, true},
		// The re-dispatched attempt is killed too: two nodes die under
		// one job, the third finishes it.
		{"mid-handoff", "kill:job=com.chaos.app1@64x2", 2, 2, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := runFleetCorpus(t, nodes, apps, mustPlan(t, tc.spec), nil)
			requireUnionParity(t, tc.name, ref, got)
			if got.stats.Killed != tc.wantKilled {
				t.Errorf("killed = %d, want %d (stats %+v)", got.stats.Killed, tc.wantKilled, got.stats)
			}
			if got.stats.Handoffs != tc.wantHandoffs {
				t.Errorf("handoffs = %d, want %d", got.stats.Handoffs, tc.wantHandoffs)
			}
			restarted := false
			for _, c := range got.started {
				if c > 1 {
					restarted = true
				}
			}
			if restarted != tc.wantRestarted {
				t.Errorf("restarted attempts = %v, want %v (started %v)", restarted, tc.wantRestarted, got.started)
			}
			if tc.wantHandoffs > 0 {
				if got.stats.ExpiredLeases != tc.wantHandoffs {
					t.Errorf("expired leases = %d, want %d", got.stats.ExpiredLeases, tc.wantHandoffs)
				}
				if got.stats.LostUnits == 0 || got.stats.OverheadUnits == 0 {
					t.Errorf("lost/overhead units not charged: %+v", got.stats)
				}
			}
		})
	}
	// Kill-mid-steal: the chunk-split outlier loses a node while stolen
	// ranges are in flight; the loss degrades to a plain handoff of the
	// lost range with the union intact (runner in steal_test.go).
	t.Run("steal-chaos", stealChaosCase)
}

// TestFleetSeededPlansAlwaysConverge runs a spread of seeded plans —
// the same generator the chaos CI leg uses — and requires every one to
// settle the full corpus with union parity: Seeded always leaves a
// survivor, so no plan may wedge or lose a job.
func TestFleetSeededPlansAlwaysConverge(t *testing.T) {
	const nodes, apps = 4, 5
	ref := runFleetCorpus(t, nodes, apps, nil, nil)
	for seed := int64(1); seed <= 4; seed++ {
		plan := faultinject.Seeded(seed, nodes, 500)
		got := runFleetCorpus(t, nodes, apps, plan, nil)
		requireUnionParity(t, fmt.Sprintf("seed=%d(%s)", seed, plan), ref, got)
		if got.stats.Killed == 0 {
			t.Errorf("seed %d (%s): no node killed", seed, plan)
		}
		if got.stats.Live == 0 {
			t.Errorf("seed %d (%s): no survivor", seed, plan)
		}
	}
}

// TestFleetDropHeartbeat pins the gray-failure path: a node whose
// heartbeats are dropped keeps working but loses its leases once the
// fleet clock passes the TTL — it is fenced, its jobs re-dispatch, and
// the at-most-once settle suppresses any late terminal from the mute
// node. The union stays byte-identical.
func TestFleetDropHeartbeat(t *testing.T) {
	const nodes, apps = 2, 6
	ref := runFleetCorpus(t, nodes, apps, nil, nil)
	got := runFleetCorpus(t, nodes, apps, mustPlan(t, "beat-drop:node=1@0"), nil)
	requireUnionParity(t, "beat-drop", ref, got)
	st := got.stats
	if st.PerNode[0].Dropped == 0 {
		t.Fatalf("node 1 dropped no heartbeats: %+v", st)
	}
	if st.Killed != 1 || st.ExpiredLeases == 0 {
		t.Fatalf("mute node not fenced by lease expiry: %+v", st)
	}
}

// TestFleetNodeStateMetrics pins the per-node state gauges: a mute node
// (working, heartbeats dropped, not yet fenced) is live and muted; a
// killed node is neither.
func TestFleetNodeStateMetrics(t *testing.T) {
	s := New(Config{Nodes: 3})
	defer s.Close()
	s.fleet.nodes[0].muted.Store(true)
	if err := s.KillNode(2); err != nil {
		t.Fatal(err)
	}
	snap := s.Metrics().Snapshot()
	for node, want := range map[string][2]int64{"1": {1, 1}, "2": {0, 0}, "3": {1, 0}} {
		l := obs.L("node", node)
		live, _ := snap.Get("backdroid_node_live", l)
		muted, ok := snap.Get("backdroid_node_muted", l)
		if !ok || live != want[0] || muted != want[1] {
			t.Errorf("node %s: live=%d muted=%d (registered %v), want %v", node, live, muted, ok, want)
		}
	}
}

// TestFleetCorruptHandoffDegradesToRedispatch pins satellite damage
// semantics end to end: the fault plan corrupts the handoff record's
// disk bytes as it is appended. The in-process run is unaffected (the
// in-memory fold sees the intact record) — one terminal, correct
// report. On restart the journal truncates at the damaged record, the
// job's terminal record is gone with it, so the job re-pends and
// re-dispatches — never a wrong or duplicated report.
func TestFleetCorruptHandoffDegradesToRedispatch(t *testing.T) {
	dir := t.TempDir()
	jnl, _, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	const apps = 2
	plan := mustPlan(t, "kill:job=com.chaos.app1@64,corrupt:handoff@1")
	run1 := runFleetCorpus(t, 2, apps, plan, jnl)
	if plan.Trips() == nil || run1.stats.Handoffs != 1 {
		t.Fatalf("plan did not trip a handoff: trips=%v stats=%+v", plan.Trips(), run1.stats)
	}
	jnl.Close()

	jnl2, pending, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer jnl2.Close()
	// The handoff record was damaged on disk; everything after it (the
	// killed job's done record among it) was dropped at the truncation,
	// so that job — and only jobs, never garbage — re-pends.
	if len(pending) == 0 {
		t.Fatalf("corrupted handoff did not re-pend its job (stats %+v)", jnl2.Stats())
	}
	for _, rec := range pending {
		if rec.Name != chaosSpec(0).Name && rec.Name != chaosSpec(1).Name {
			t.Fatalf("recovery resurrected an unknown job: %+v", rec)
		}
	}
	s2 := New(Config{Nodes: 2, Store: NewBundleStore(0), Journal: jnl2})
	if n := s2.Recover(chaosFromJournal); n != len(pending) {
		t.Fatalf("Recover = %d, want %d", n, len(pending))
	}
	for _, rec := range pending {
		res, err := s2.Wait(JobID(rec.Job))
		if err != nil {
			t.Fatalf("re-dispatched job %d: %v", rec.Job, err)
		}
		if got := detectionKey(res.BackDroid); got != run1.keys[res.Name] {
			t.Fatalf("re-dispatched report for %s diverged:\n%s\nvs\n%s", res.Name, got, run1.keys[res.Name])
		}
	}
	s2.Close()
}

// TestFleetAllNodesDeadFailsJobs pins the no-survivor edge: when the
// plan kills every node, submitted jobs fail terminally — no hang, no
// silent loss.
func TestFleetAllNodesDeadFailsJobs(t *testing.T) {
	s := New(Config{Nodes: 2, Faults: mustPlan(t, "kill:node=1@0,kill:node=2@0")})
	defer s.Close()
	id, err := s.Submit(Job{Name: testSpec(0).Name, Source: sourceFor(testSpec(0)), RunBackDroid: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(id); err == nil {
		t.Fatal("job settled on a fleet with every node dead")
	} else if errors.Is(err, ErrCanceled) {
		t.Fatalf("job reported canceled, want a dead-fleet failure: %v", err)
	}
	if fs := s.FleetStats(); fs.Live != 0 || fs.Killed != 2 {
		t.Fatalf("fleet stats = %+v, want 0 live / 2 killed", fs)
	}
}

// TestFleetDieNodeMidRunHandsOff drives Scheduler.KillNode (the
// `die node=N` path) against a running job: the pinned job's node is
// fenced externally, the attempt aborts at its next checkpoint and the
// job settles exactly once on the surviving node.
func TestFleetDieNodeMidRunHandsOff(t *testing.T) {
	events := make(chan Event, 16)
	terminals := make(map[JobID]int)
	var nodeOf sync.Map // JobID -> node of first started event
	var evWG sync.WaitGroup
	evWG.Add(1)
	go func() {
		defer evWG.Done()
		for ev := range events {
			switch ev.Kind {
			case EventStarted:
				if _, ok := nodeOf.Load(ev.Job); !ok {
					nodeOf.Store(ev.Job, ev.Node)
				}
			case EventDone, EventFailed, EventCanceled:
				terminals[ev.Job]++
			}
		}
	}()
	s := New(Config{Nodes: 2, Store: NewBundleStore(0), Events: events})
	if err := s.KillNode(0); err == nil {
		t.Fatal("KillNode(0) must reject an out-of-range node")
	}
	// One long job; whichever node starts it gets killed mid-run.
	id, err := s.Submit(Job{Name: chaosSpec(0).Name, Source: sourceFor(chaosSpec(0)), RunBackDroid: true})
	if err != nil {
		t.Fatal(err)
	}
	// Spin until the started event reports the executing node.
	var node int
	for {
		if v, ok := nodeOf.Load(id); ok {
			node = v.(int)
			break
		}
		runtime.Gosched()
	}
	if err := s.KillNode(node); err != nil {
		t.Fatalf("KillNode(%d): %v", node, err)
	}
	if err := s.KillNode(node); err == nil {
		t.Fatal("double KillNode must report the node already dead")
	}
	res, err := s.Wait(id)
	if err != nil {
		t.Fatalf("job lost after die node=%d: %v", node, err)
	}
	if len(res.BackDroid.Sinks) == 0 {
		t.Fatal("handed-off job produced an empty report")
	}
	s.Close()
	close(events)
	evWG.Wait()
	if terminals[id] != 1 {
		t.Fatalf("job emitted %d terminals, want exactly 1", terminals[id])
	}
	fs := s.FleetStats()
	if fs.Killed != 1 {
		t.Fatalf("fleet stats after die: %+v", fs)
	}
}
