package service

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"backdroid/internal/core"
	"backdroid/internal/faultinject"
	"backdroid/internal/obs"
	"backdroid/internal/service/journal"
	"backdroid/internal/simtime"
)

// This file is the scheduler's fleet layer: with Config.Nodes > 0 the
// worker goroutines become process-shaped nodes — each with its own
// work-unit odometer and heartbeat stream, all analyzing against the
// one Config.Store — and the scheduler becomes their coordinator. Every
// dispatch takes a per-(job, chunk) lease on the fleet-global simtime
// clock; a node renews its lease at each meter checkpoint. A node that
// dies (by fault plan, `die node=N`, or KillNode) or goes mute stops
// renewing; once the clock passes the lease TTL the coordinator fences
// the node, journals a handoff record and re-dispatches the lost range
// to a surviving node with retry backoff. Terminals stay at-most-once
// (Scheduler.finish settles exactly one attempt); sink events are
// at-least-once but byte-identical across attempts, so report unions
// dedup cleanly. The steal layer (DESIGN.md Sec. 13) rides the same
// machinery: a stolen sink chunk is just a second lease on the job,
// keyed by its chunk id, with its own heartbeat stream and expiry.
// See DESIGN.md Sec. 12.

// NodeStats is one fleet node's counter block.
type NodeStats struct {
	ID      int
	State   string // "live", "muted" (working but heartbeats dropped) or "dead"
	Units   int64  // work-unit odometer: units charged on this node
	Jobs    int64  // attempts finished on this node
	Beats   int64  // heartbeats delivered
	Dropped int64  // heartbeats dropped by fault injection
}

// FleetStats aggregates the fleet's resilience counters.
type FleetStats struct {
	Nodes         int
	Live          int
	Killed        int
	Clock         int64 // fleet-global simtime clock, in work units
	Handoffs      int64 // jobs re-dispatched after a lease expiry
	ExpiredLeases int64
	LostUnits     int64 // attempt units abandoned on dead/fenced nodes
	OverheadUnits int64 // detection latency + handoff + backoff charges
	Steals        int64 // sink chunks stolen to idle nodes
	StealVictims  int64 // jobs that had at least one chunk stolen
	StolenSinks   int64 // sink call sites moved by steals
	StealUnits    int64 // charged steal overhead (simtime.StealUnits each)
	MakespanUnits int64 // max per-node odometer: charged time to the last busy node
	PerNode       []NodeStats
}

// fleetNode is one goroutine-backed worker node.
type fleetNode struct {
	id       int // 1-based; 0 in events means "no fleet"
	dead     atomic.Bool
	muted    atomic.Bool // heartbeats dropped (gray failure)
	odometer atomic.Int64
	beats    atomic.Int64
	dropped  atomic.Int64
	jobs     atomic.Int64
}

// leaseKey identifies one dispatched range of a job: sub 0 is the
// job's own (victim) dispatch, sub > 0 a stolen or re-pended sink
// chunk. A job and its stolen chunks hold independent leases, so one
// dying node loses only its own range.
type leaseKey struct {
	job JobID
	sub int
}

// lease is one dispatch's liveness contract.
type lease struct {
	job     JobID
	sub     int
	node    int
	attempt int
	expires int64 // fleet clock deadline; renewed on every heartbeat
	units   int64 // units metered against this attempt (checkpoint-granular)
}

// fleet is the coordinator-side state of the worker fleet.
type fleet struct {
	nodes []*fleetNode
	plan  *faultinject.Plan
	// requeue is Scheduler.requeueJob; units is the charged work the
	// expired lease had metered (the lost progress, which the tracer
	// anchors the handoff span at).
	requeue func(id JobID, sub, from, attempt int, units int64)
	wake    func() // Scheduler cond broadcast
	allDead func() // fail the still-queued jobs
	clock   atomic.Int64

	mu     sync.Mutex
	leases map[leaseKey]*lease

	handoffs     atomic.Int64
	expired      atomic.Int64
	lostUnits    atomic.Int64
	overhead     atomic.Int64
	steals       atomic.Int64
	stealVictims atomic.Int64
	stolenSinks  atomic.Int64
	stealUnits   atomic.Int64
}

// newFleet builds the node set.
func newFleet(nodes int, plan *faultinject.Plan) *fleet {
	f := &fleet{plan: plan, leases: make(map[leaseKey]*lease)}
	for i := 1; i <= nodes; i++ {
		f.nodes = append(f.nodes, &fleetNode{id: i})
	}
	return f
}

func (f *fleet) nodeDead(node int) bool { return f.nodes[node-1].dead.Load() }

func (f *fleet) liveCount() int {
	live := 0
	for _, n := range f.nodes {
		if !n.dead.Load() {
			live++
		}
	}
	return live
}

// maxAttempts bounds re-dispatches per job: past it the job fails
// terminally instead of bouncing forever between dying nodes.
func (f *fleet) maxAttempts() int { return 2*len(f.nodes) + 1 }

// fence marks a node dead and wakes the dispatcher: a fenced node
// pulls no more work and its running attempt aborts at its next meter
// checkpoint. When the last live node is fenced, the still-queued jobs
// are failed instead of waiting for workers that no longer exist.
func (f *fleet) fence(node int) {
	n := f.nodes[node-1]
	if n.dead.Swap(true) {
		return
	}
	if f.wake != nil {
		f.wake()
	}
	if f.liveCount() == 0 && f.allDead != nil {
		f.allDead()
	}
}

// kill is the `die node=N` entry point.
func (f *fleet) kill(node int) error {
	if node < 1 || node > len(f.nodes) {
		return fmt.Errorf("service: node %d out of range (fleet of %d)", node, len(f.nodes))
	}
	if f.nodes[node-1].dead.Load() {
		return fmt.Errorf("service: node %d already dead", node)
	}
	f.fence(node)
	return nil
}

// killSweep fires the plan's node kills whose fleet-clock instant has
// passed — over every node, not just the polling one, so a kill aimed
// at a node that happens to be idle still fires at its simulated time
// instead of waiting for work that may never arrive.
func (f *fleet) killSweep(now int64) {
	for _, n := range f.nodes {
		if !n.dead.Load() && f.plan.KillNode(n.id, now) {
			f.fence(n.id)
		}
	}
}

// pullKill is polled by a node before it pulls a job: a clock-keyed
// kill whose instant has passed fires here — the node died between
// jobs (the mid-queue scenario). It reports whether the polling node
// is dead.
func (f *fleet) pullKill(node int) bool {
	n := f.nodes[node-1]
	if n.dead.Load() {
		return true
	}
	f.killSweep(f.clock.Load())
	return n.dead.Load()
}

// grant registers the lease of a freshly dispatched attempt of one
// range (sub 0 = the whole job / victim range, sub > 0 = a chunk).
func (f *fleet) grant(id JobID, sub int, node, attempt int) {
	now := f.clock.Load()
	f.mu.Lock()
	f.leases[leaseKey{id, sub}] = &lease{
		job: id, sub: sub, node: node, attempt: attempt,
		expires: now + simtime.LeaseTTLUnits,
	}
	f.mu.Unlock()
}

// release retires an attempt's lease when the attempt finishes its
// range. A stale release (the lease expired and was handed off) is a
// no-op.
func (f *fleet) release(id JobID, sub int, node, attempt int) {
	f.mu.Lock()
	k := leaseKey{id, sub}
	if l := f.leases[k]; l != nil && l.node == node && l.attempt == attempt {
		delete(f.leases, k)
	}
	f.mu.Unlock()
	f.nodes[node-1].jobs.Add(1)
}

// leaseUnits reports the units metered so far against one dispatch —
// the steal trigger's "has this job ground long enough" probe.
func (f *fleet) leaseUnits(id JobID, sub int) int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	if l := f.leases[leaseKey{id, sub}]; l != nil {
		return l.units
	}
	return 0
}

// tick is the heartbeat: the engine's meter calls it (through the
// dispatch's Checkpoint hook) at every checkpoint with the units the
// attempt charged since the previous one. It advances the node
// odometer and the fleet clock by that delta, meters the attempt's
// lease, consults the fault plan, renews (or drops) the heartbeat and
// sweeps expired leases. It returns true when the node executing the
// attempt is dead — the engine then aborts the run at this checkpoint.
func (f *fleet) tick(node int, id JobID, sub int, name string, attempt int, delta int64) bool {
	n := f.nodes[node-1]
	if n.dead.Load() {
		return true
	}
	odom := n.odometer.Add(delta)
	now := f.clock.Add(delta)

	k := leaseKey{id, sub}
	var units int64
	f.mu.Lock()
	if l := f.leases[k]; l != nil && l.node == node && l.attempt == attempt {
		l.units += delta
		units = l.units
	}
	f.mu.Unlock()

	f.killSweep(now)
	if n.dead.Load() {
		return true
	}
	if f.plan.KillJob(node, name, attempt, units) {
		f.fence(node)
		return true
	}
	if f.plan.DropHeartbeat(node, odom) {
		n.muted.Store(true)
		n.dropped.Add(1)
	} else {
		n.beats.Add(1)
		f.mu.Lock()
		if l := f.leases[k]; l != nil && l.node == node && l.attempt == attempt {
			l.expires = now + simtime.LeaseTTLUnits
		}
		f.mu.Unlock()
	}
	f.sweep(now)
	return n.dead.Load()
}

// abandon is the death certificate of a killed node's running attempt.
// The worker goroutine survives (only the modeled node died); it
// advances the fleet clock by the lease TTL — the coordinator noticing
// the silent node — charges that detection latency as overhead and
// sweeps, which expires this attempt's lease and requeues the job on a
// surviving node. If a concurrent sweep already handed the job off,
// nothing is charged twice.
func (f *fleet) abandon(id JobID, sub int, node, attempt int) {
	f.mu.Lock()
	l := f.leases[leaseKey{id, sub}]
	mine := l != nil && l.node == node && l.attempt == attempt
	f.mu.Unlock()
	if !mine {
		return
	}
	now := f.clock.Add(simtime.LeaseTTLUnits)
	f.overhead.Add(simtime.LeaseTTLUnits)
	f.sweep(now)
}

// sweep expires the leases of dead and muted nodes once the fleet
// clock passes their TTL. The holder is fenced — a node that lost a
// lease is dead to the fleet even if it is still secretly working (the
// gray-failure rule; its late terminal is suppressed by the at-most-
// once settle in Scheduler.finish) — and each lost job is handed back
// to the scheduler. Victims are processed in job order so multi-expiry
// handoffs are deterministic. Leases of live, heartbeating nodes never
// expire here: expiry requires the holder to be dead or mute, so real
// goroutine-scheduling jitter can not fence a healthy node.
func (f *fleet) sweep(now int64) {
	var victims []*lease
	f.mu.Lock()
	for k, l := range f.leases {
		n := f.nodes[l.node-1]
		if now >= l.expires && (n.dead.Load() || n.muted.Load()) {
			delete(f.leases, k)
			victims = append(victims, l)
		}
	}
	f.mu.Unlock()
	if len(victims) == 0 {
		return
	}
	sort.Slice(victims, func(i, j int) bool {
		if victims[i].job != victims[j].job {
			return victims[i].job < victims[j].job
		}
		return victims[i].sub < victims[j].sub
	})
	for _, l := range victims {
		f.expired.Add(1)
		f.lostUnits.Add(l.units)
		f.fence(l.node)
		if f.requeue != nil {
			f.requeue(l.job, l.sub, l.node, l.attempt, l.units)
		}
	}
}

// handoffUnits prices one re-dispatch of the given attempt: the flat
// handoff plus an exponential per-attempt backoff.
func (f *fleet) handoffUnits(attempt int) int64 {
	shift := attempt - 1
	if shift > 6 {
		shift = 6
	}
	return simtime.HandoffUnits + simtime.RetryBackoffUnits<<shift
}

// chargeHandoff charges one re-dispatch, advancing the fleet clock and
// the overhead account.
func (f *fleet) chargeHandoff(attempt int) {
	units := f.handoffUnits(attempt)
	f.clock.Add(units)
	f.overhead.Add(units)
	f.handoffs.Add(1)
}

// chargeSteal prices one chunk steal: the flat coordinator cost of
// fencing the victim's range and dispatching the chunk, advancing the
// fleet clock and the overhead and steal accounts. first marks the
// job's first steal (the victim counter counts jobs, not chunks).
func (f *fleet) chargeSteal(sinks int, first bool) {
	f.clock.Add(simtime.StealUnits)
	f.overhead.Add(simtime.StealUnits)
	f.stealUnits.Add(simtime.StealUnits)
	f.steals.Add(1)
	f.stolenSinks.Add(int64(sinks))
	if first {
		f.stealVictims.Add(1)
	}
}

// requeueJob returns a lease-expired range to work. A lost sink chunk
// (sub > 0), or a lost victim whose job already had chunks stolen, is
// re-pended on the chunk queue — only the lost range re-runs; the parts
// other nodes finished stand. An unsplit job returns to the FRONT of
// its tenant's queue (the handoff must not wait behind the tenant's
// backlog — the job already waited its turn once). Either way the
// handoff record is journaled and the re-dispatch overhead charged with
// exponential backoff. A job with no surviving node, or one past the
// fleet's attempt bound, fails terminally instead. units is the work
// the expired lease had metered — where on the lost track the tracer
// anchors the handoff span. Called by the fleet sweep, never under
// s.mu.
func (s *Scheduler) requeueJob(id JobID, sub, from, attempt int, units int64) {
	s.mu.Lock()
	st, ok := s.states[id]
	if !ok || st.settled {
		s.mu.Unlock()
		return
	}
	live := s.fleet.liveCount()
	if live == 0 || attempt >= s.fleet.maxAttempts() {
		s.mu.Unlock()
		s.finish(st, nil, fmt.Errorf(
			"service: job %q lost with node %d (attempt %d, %d nodes live): retry budget exhausted",
			st.job.Name, from, attempt, live))
		return
	}
	var w *work // the lost range to re-pend; nil re-queues the whole job
	if cs := st.chunk; cs != nil {
		cs.mu.Lock()
		if sub == 0 && cs.steals > 0 {
			// The victim died after chunks were stolen: its remaining
			// range is [0, fence) — re-pend just that, as a plain chunk.
			cs.victimLive = false
			w = &work{st: st, cs: cs, from: 0, to: cs.fence}
		} else if r, ok := cs.active[sub]; ok {
			w = &work{st: st, cs: cs, from: r.From, to: r.To}
		}
		if w != nil {
			w.sub = w.from + 1
			cs.active[w.sub] = core.ChunkRange{From: w.from, To: w.to}
		}
		cs.mu.Unlock()
		if w == nil && sub > 0 {
			// The chunk's range already completed or re-pended elsewhere:
			// nothing left to recover from this lease.
			s.mu.Unlock()
			return
		}
	}
	if w != nil {
		s.traceHandoff(st, sub, w.sub, attempt, units)
		s.chunkQueue = append(s.chunkQueue, w)
	} else {
		s.traceHandoff(st, 0, 0, attempt, units)
		t := s.tenantLocked(st.tenant)
		t.queue = append([]*jobState{st}, t.queue...)
		t.requeued++
	}
	s.cond.Broadcast()
	s.mu.Unlock()

	s.journalAppend(journal.Record{
		Kind: journal.KindHandoff, Job: int64(id),
		Node: int64(from), Attempt: int64(attempt),
	})
	s.fleet.chargeHandoff(attempt)
}

// traceHandoff records a handoff on the lost track: the interval covers
// the detection latency (TTL) plus the charged re-dispatch cost,
// starting where the lost lease's metering stopped, and the next
// attempt's track resumes after it. Caller holds s.mu.
func (s *Scheduler) traceHandoff(st *jobState, lost, next, attempt int, units int64) {
	tr := s.cfg.Trace
	if tr == nil {
		return
	}
	start := traceBaseLocked(st, lost) + units
	dur := simtime.LeaseTTLUnits + s.fleet.handoffUnits(attempt)
	tr.Add(obs.Span{Job: int64(st.id), Sub: lost, Name: "handoff",
		Cat: "sched", Start: start, Dur: dur, Node: -1,
		Args: []obs.Arg{{Key: "attempt", Value: fmt.Sprint(attempt)}}})
	setTraceBaseLocked(st, next, start+dur)
}

// failQueued fails every still-queued job — the fleet's last-node-died
// path, where no worker remains to ever pop them.
func (s *Scheduler) failQueued() {
	s.mu.Lock()
	var victims []*jobState
	for _, name := range s.order {
		t := s.tenants[name]
		victims = append(victims, t.queue...)
		t.queue = nil
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	for _, st := range victims {
		s.finish(st, nil, errors.New("service: every fleet node is dead"))
	}
}

// KillNode fences a fleet node — the `die node=N` crash drill: the node
// pulls no more work, its running attempt aborts at its next meter
// checkpoint and is handed off to a surviving node after the lease TTL.
// It errors without a fleet, for an out-of-range node, or for a node
// already dead.
func (s *Scheduler) KillNode(node int) error {
	if s.fleet == nil {
		return errors.New("service: no fleet configured (start with Nodes > 0)")
	}
	return s.fleet.kill(node)
}

// FleetStats snapshots the fleet counters (nil without a fleet).
func (s *Scheduler) FleetStats() *FleetStats {
	if s.fleet == nil {
		return nil
	}
	return s.fleet.stats()
}

// stats snapshots the fleet counters.
func (f *fleet) stats() *FleetStats {
	fs := &FleetStats{
		Nodes:         len(f.nodes),
		Clock:         f.clock.Load(),
		Handoffs:      f.handoffs.Load(),
		ExpiredLeases: f.expired.Load(),
		LostUnits:     f.lostUnits.Load(),
		OverheadUnits: f.overhead.Load(),
		Steals:        f.steals.Load(),
		StealVictims:  f.stealVictims.Load(),
		StolenSinks:   f.stolenSinks.Load(),
		StealUnits:    f.stealUnits.Load(),
	}
	for _, n := range f.nodes {
		if u := n.odometer.Load(); u > fs.MakespanUnits {
			// The fleet clock sums every node's charged work plus overhead;
			// the makespan — what stealing actually shortens — is the
			// busiest single node's odometer.
			fs.MakespanUnits = u
		}
		ns := NodeStats{
			ID:      n.id,
			State:   "live",
			Units:   n.odometer.Load(),
			Jobs:    n.jobs.Load(),
			Beats:   n.beats.Load(),
			Dropped: n.dropped.Load(),
		}
		switch {
		case n.dead.Load():
			ns.State = "dead"
			fs.Killed++
		case n.muted.Load():
			ns.State = "muted"
			fs.Live++
		default:
			fs.Live++
		}
		fs.PerNode = append(fs.PerNode, ns)
	}
	return fs
}
