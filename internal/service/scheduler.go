package service

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"backdroid/internal/apk"
	"backdroid/internal/core"
	"backdroid/internal/faultinject"
	"backdroid/internal/obs"
	"backdroid/internal/service/journal"
	"backdroid/internal/simtime"
	"backdroid/internal/wholeapp"
)

// Scheduler errors.
var (
	// ErrClosed is returned by Submit after Close.
	ErrClosed = errors.New("service: scheduler closed")
	// ErrCanceled is returned by Wait for a canceled job — removed from
	// its queue before starting, or stopped at a meter checkpoint while
	// running.
	ErrCanceled = errors.New("service: job canceled")
	// ErrUnknownJob is returned by Wait for an ID this scheduler never
	// issued.
	ErrUnknownJob = errors.New("service: unknown job id")
)

// JobID identifies a submitted job; IDs are issued in submission order,
// so iterating them replays the corpus deterministically.
type JobID int64

// Job is one unit of work: an app source plus the analyzers to run on it.
type Job struct {
	// Name labels the job in events and error messages (usually the app
	// name).
	Name string
	// Tenant names the analysis stream the job belongs to; "" lands in
	// DefaultTenantName. Each tenant has its own bounded queue and
	// weighted-round-robin dispatch share, so one tenant's backlog never
	// head-of-line-blocks another's submissions.
	Tenant string
	// Spec is the opaque string a journaled job is rebuilt from after a
	// restart (backdroidd stores the APK path). Jobs with an empty Spec
	// are journaled too, but a recovery pass can only re-enqueue them if
	// its rebuild function knows them by name.
	Spec string
	// Source materializes the app when the job is scheduled — a generator
	// closure, an APK loader, an in-memory handle. Running it lazily on
	// the worker keeps memory bounded: apps exist only while analyzed,
	// exactly as the one-shot corpus pipeline behaved.
	Source func() (*apk.App, error)
	// Options configures the BackDroid engine for this job; nil inherits
	// the scheduler default (which defaults to core.DefaultOptions).
	Options *core.Options
	// IndexCacheDir overrides the scheduler's persistent bundle directory
	// for this job ("" inherits).
	IndexCacheDir string
	// Analyzer selection; a job with none selected still runs Source
	// (useful for validation probes).
	RunBackDroid bool
	RunWholeApp  bool
	RunCallGraph bool
	// Done, when non-nil, runs on the worker goroutine as soon as the job
	// finishes, before the done/failed event is emitted — the progress
	// seam of batch clients.
	Done func(res *JobResult, err error)
}

// JobResult bundles one job's analysis outcomes.
type JobResult struct {
	ID        JobID
	Name      string
	BackDroid *core.Report
	WholeApp  *wholeapp.Report
	CallGraph *wholeapp.Report
}

// EventKind types the entries of the streamed result channel.
type EventKind int

// Event kinds, in the order one job emits them.
const (
	EventQueued EventKind = iota + 1
	EventStarted
	EventSink
	EventDone
	EventFailed
	EventCanceled
)

// String names the event kind as the serve command prints it.
func (k EventKind) String() string {
	switch k {
	case EventQueued:
		return "queued"
	case EventStarted:
		return "started"
	case EventSink:
		return "sink"
	case EventDone:
		return "done"
	case EventFailed:
		return "failed"
	case EventCanceled:
		return "canceled"
	}
	return fmt.Sprintf("event(%d)", int(k))
}

// Event is one streamed scheduler occurrence. Per job the order is fixed
// — queued, started, one EventSink per resolved sink in report order,
// then exactly one of done/failed/canceled — while events of different
// jobs interleave with worker scheduling. A job canceled while running
// emits its single terminal EventCanceled and nothing after it.
type Event struct {
	Kind EventKind
	Job  JobID
	Name string
	// Sink is set on EventSink: the completed per-sink report, final
	// verdict included.
	Sink *core.SinkReport
	// Result is set on EventDone.
	Result *JobResult
	// Err is set on EventFailed.
	Err error
	// Node is the fleet node executing the job (EventStarted and later);
	// 0 when the scheduler runs without a fleet.
	Node int
	// Attempt counts dispatches of this job (EventStarted and later): 1
	// on the first dispatch, higher after a lease-expiry handoff
	// re-dispatched it. A handed-off job emits one EventStarted per
	// attempt but still exactly one terminal event.
	Attempt int
	// Seq is the job's WRR dispatch sequence number (EventStarted).
	Seq int64
	// Span, set on EventSink when tracing is enabled, is the id of the
	// backslice span that produced the sink — "job/sub/pos" on the
	// trace's track coordinates — so an SSE consumer can join the event
	// stream against the exported timeline.
	Span string
}

// Config configures a Scheduler.
type Config struct {
	// Workers bounds concurrent job analyses; values <= 1 run one at a
	// time.
	Workers int
	// QueueDepth bounds each tenant's submit queue; Submit blocks once
	// this many of that tenant's jobs are waiting (backpressure toward
	// the producer). 0 defaults to 2*Workers. TenantConfig.MaxQueueDepth
	// overrides it per tenant.
	QueueDepth int
	// Tenants preconfigures named tenants (weight, queue depth, store
	// budget). Jobs for tenants absent here are admitted under the zero
	// TenantConfig: weight 1, inherited queue depth, shared store.
	Tenants map[string]TenantConfig
	// Options is the default engine configuration for jobs that carry
	// none; nil uses core.DefaultOptions.
	Options *core.Options
	// IndexCacheDir is the default persistent bundle directory ("" =
	// disabled).
	IndexCacheDir string
	// Store is the shared in-memory content-addressed bundle store; nil
	// disables in-memory reuse. With a store, re-submitting an app whose
	// fingerprint is cached performs zero disassembly, zero index builds
	// and zero bundle disk I/O, and concurrent submissions of one
	// fingerprint serialize so the bundle is built exactly once.
	// TenantConfig.StoreBudget can give a tenant a private store instead.
	Store *BundleStore
	// Journal, when non-nil, makes the queue durable: every submit,
	// start and terminal outcome is appended as a CRC'd record, so a
	// restarted service can Recover the jobs that were pending when the
	// previous process died. The journal belongs to the caller (it is
	// not closed by Close).
	Journal *journal.Journal
	// Reports, when non-nil, is the settled-result tier: terminal
	// BackDroid reports content-addressed by (app fingerprint, options
	// fingerprint). Resubmitting a settled pair is answered from the
	// store in O(1) — zero disassembly, zero index builds, zero engine
	// runs — with per-sink events replayed and a report bitwise-identical
	// (in canonical encoding) to the original run's. Attach the store to
	// the Journal and Recover it before New to make the tier survive
	// restarts.
	Reports *ReportStore
	// Events, when non-nil, receives the streamed event channel. The
	// consumer must drain it: emission blocks the emitting worker (and,
	// because per-job event order is guaranteed, other emitters) until
	// the event is received.
	Events chan<- Event
	// Nodes, when > 0, runs the scheduler as a coordinator over a fleet
	// of goroutine-backed worker nodes (Workers is overridden to Nodes).
	// Every dispatch takes a simtime-metered lease; a node that dies or
	// goes mute has its jobs handed off to surviving nodes, and shared-
	// policy tenants analyze against consistent-hashed per-node bundle
	// partitions instead of Config.Store. See DESIGN.md Sec. 12.
	Nodes int
	// NodeStoreBudget is each fleet node's bundle partition budget in
	// bytes: 0 = unbounded partitions, < 0 = partitions disabled (jobs
	// run storeless unless their tenant has a private store). Only
	// meaningful with Nodes > 0.
	NodeStoreBudget int64
	// Faults is the deterministic chaos plan threaded through the
	// dispatch loop (node/job kills, heartbeat drops), the journal append
	// path (record corruption) and the fleet bundle partitions (fetch
	// failures); nil injects nothing. See internal/faultinject.
	Faults *faultinject.Plan
	// StealAfterUnits is how long a job must have ground (units metered
	// against its lease) before its tail becomes stealable — a warmup
	// that keeps small apps from being split for no benefit. A value
	// <= 0 inherits simtime.StealAfterUnits; only meaningful with
	// Nodes > 0. The other fleet tunables (lease TTL, handoff and
	// backoff charges, the minimum stealable tail) are the simtime
	// constants of the same names.
	StealAfterUnits int64
	// Trace, when non-nil, records simtime-anchored spans for every
	// dispatch: engine phases, steal shed/claim, handoffs, chunk merges
	// and settled hits, plus one charged-units counter sample per meter
	// checkpoint (which doubles as the lease heartbeat in fleet mode —
	// there is no separate heartbeat event). Span timestamps are charged
	// units on per-(job, chunk) tracks, never wall time, so two runs of
	// one seed record byte-identical canonical exports. nil disables
	// tracing at zero cost.
	Trace *obs.Trace
}

// Scheduler runs analysis jobs over a bounded worker pool with per-tenant
// bounded queues and deterministic weighted-round-robin dispatch. It is
// the control plane the one-shot corpus harness lacked: engines are still
// per-job (analysis state never crosses goroutines), but the bundle
// store, worker pool, event stream, tenant queues and the durable job
// journal live across submissions — and across process restarts when a
// journal is configured.
type Scheduler struct {
	cfg Config

	mu      sync.Mutex
	cond    *sync.Cond // queue space, queued work, close/halt — all one broadcast
	tenants map[string]*tenant
	order   []string // sorted tenant names, the WRR visit order
	cursor  int      // WRR position in order

	states      map[JobID]*jobState
	nextID      JobID
	closed      bool
	halted      bool
	inflight    int // submits between their closed-check and queue append
	dispatchSeq int64

	// chunkQueue holds sink-chunk ranges awaiting a node: stolen ranges
	// shed off a grinding victim, plus ranges lost to an expired chunk
	// lease, re-pended ahead of whole jobs. chunkJobs counts unsettled
	// jobs that registered chunk state — workers must not exit while one
	// remains, or its merged settle would never run. workers/running
	// count live fleet workers and those currently executing a dispatch;
	// the difference is the fleet's idle capacity, the shed trigger. It
	// deliberately counts runnable-but-unscheduled workers as idle: on a
	// single-CPU host a busy victim can starve every other goroutine of
	// CPU, and capacity — not momentary parking — is what a steal needs.
	chunkQueue []*chunkWork
	chunkJobs  int
	workers    int
	running    int

	journalUnits atomic.Int64 // control-plane work charged for appends

	// prev remembers, per tenant+job name, the last successfully analyzed
	// version: its content fingerprint and settled report. A resubmission
	// of the same name with a different fingerprint is an app update; when
	// the prior bundle is still in the store, the job runs the engine's
	// incremental delta path against it (core.Options.DeltaFrom).
	prevMu sync.Mutex
	prev   map[string]prevRun

	workerWG sync.WaitGroup
	evMu     sync.Mutex

	// fleet is the multi-node layer (nil when Config.Nodes == 0): node
	// liveness, per-job leases, handoff accounting and the partitioned
	// bundle placement.
	fleet *fleet

	// metrics is the scheduler's registry: every subsystem's counters
	// are collected into it (registerMetrics).
	metrics *obs.Registry
}

// prevRun is one remembered prior analysis of a job name.
type prevRun struct {
	fp     uint64
	report *core.Report
}

func prevKey(tenant, name string) string { return tenant + "\x00" + name }

type jobState struct {
	id              JobID
	tenant          string
	job             Job
	store           *BundleStore // tenant-resolved bundle store (nil = none)
	fleetStore      bool         // analyze against the fleet's partitioned placement
	done            chan struct{}
	res             *JobResult
	err             error
	canceled        bool        // canceled while queued (under mu)
	cancelReq       bool        // cancel requested while running (under mu)
	cancelFlag      atomic.Bool // polled lock-free by the engine's meter
	cancelJournaled bool        // terminal canceled record already written
	started         bool
	settled         bool // terminal outcome delivered (under mu) — at-most-once guard
	node            int  // fleet node of the current/last attempt (under mu)
	attempt         int  // dispatch count (under mu)
	dispatchSeq     int64
	// chunk is the latest attempt's sink-chunk fan-out state (under mu);
	// nil for jobs that run unsplit. The steal trigger and the chunk
	// requeue path target it; a whole-job re-dispatch replaces it.
	chunk *chunkState
	// traceBase maps a track (sub id) to its charged-units origin (under
	// mu): 0 for a first dispatch, advanced past the handoff charge when
	// a lost range re-runs, so a re-dispatched attempt's spans land
	// after the lost attempt's instead of on top of them. nil until the
	// tracer first writes it; absent subs read 0.
	traceBase map[int]int64
}

// chunkState tracks one chunk-split job: the victim's progress through
// the canonical sink list, the fence its range shrinks to as chunks are
// stolen, the in-flight stolen ranges and the partial reports awaiting
// the merge. One chunkState belongs to one victim dispatch; its fields
// are guarded by its own mutex (lock order: Scheduler.mu, then
// chunkState.mu, then fleet.mu).
type chunkState struct {
	mu         sync.Mutex
	grain      int  // Options.SinkChunk: steal boundaries round up to it
	total      int  // canonical sink count; -1 until the victim's first poll
	started    int  // the victim has begun sinks [0, started)
	fence      int  // the victim analyzes [0, fence); each steal shrinks it
	victimLive bool // the victim attempt is still running (steals need it)
	steals     int  // chunks stolen off this job
	parts      []chunkPart
	active     map[int]core.ChunkRange // sub -> in-flight stolen/re-pended range
	fp         uint64
	key        ReportKey
	haveKey    bool
	remember   bool // seed the delta path with the merged report
	name       string
	// mergeTraced dedups the chunk-merge trace instant: two ranges
	// completing coverage concurrently both run the merge (finish's
	// guard settles one), but the trace must record exactly one merge.
	mergeTraced bool
}

// chunkPart is one finished range's partial report.
type chunkPart struct {
	from, to int
	rep      *core.Report
}

// chunkWork is one dispatchable sink range: a freshly stolen chunk
// (steal=true) or a range re-pended after its holder's lease expired.
// sub keys its lease: 0 is the victim itself, from+1 otherwise —
// nonzero, unique per distinct range of one job.
type chunkWork struct {
	st     *jobState
	cs     *chunkState
	from   int
	to     int
	sub    int
	first  bool // the job's first steal (victim counter)
	steal  bool // live steal: journal KindSteal and charge simtime.StealUnits
	victim int  // the victim's node; it declines its own shed chunks
}

// New builds and starts a scheduler. With a journal configured, new job
// IDs are issued above every ID the journal has seen, so a recovered
// queue and fresh submissions never collide.
func New(cfg Config) *Scheduler {
	if cfg.Nodes > 0 {
		// Fleet mode: one worker goroutine per node — the goroutine is the
		// node's execution substrate, the node is the failure domain.
		cfg.Workers = cfg.Nodes
	}
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 2 * cfg.Workers
	}
	if cfg.StealAfterUnits <= 0 {
		cfg.StealAfterUnits = simtime.StealAfterUnits
	}
	s := &Scheduler{
		cfg:     cfg,
		tenants: make(map[string]*tenant),
		states:  make(map[JobID]*jobState),
		prev:    make(map[string]prevRun),
		metrics: obs.NewRegistry(),
	}
	s.registerMetrics()
	s.cond = sync.NewCond(&s.mu)
	if cfg.Journal != nil {
		s.nextID = JobID(cfg.Journal.MaxJobID())
		if cfg.Faults != nil {
			cfg.Journal.SetCorrupt(faultinject.JournalCorrupter(cfg.Faults))
		}
	}
	if cfg.Nodes > 0 {
		s.fleet = newFleet(cfg.Nodes, cfg.NodeStoreBudget, cfg.Faults)
		s.fleet.requeue = s.requeueJob
		s.fleet.wake = s.cond.Broadcast
		s.fleet.allDead = s.failQueued
	}
	if s.fleet != nil {
		s.workers = cfg.Workers
	}
	for i := 0; i < cfg.Workers; i++ {
		node := 0
		if s.fleet != nil {
			node = i + 1
		}
		s.workerWG.Add(1)
		go func() {
			defer s.workerWG.Done()
			defer s.workerExit(node)
			for {
				if node > 0 && s.fleet.pullKill(node) {
					return
				}
				st, cw := s.nextWork(node)
				if cw != nil {
					s.runChunk(cw, node)
					s.workDone(node)
					continue
				}
				if st == nil {
					return
				}
				s.runJob(st, node)
				s.workDone(node)
			}
		}()
	}
	return s
}

// workerExit retires a fleet worker from the idle-capacity accounting
// and wakes the waiters: a victim node parked leaving a queued steal
// chunk "for someone else" must re-evaluate when that someone dies.
func (s *Scheduler) workerExit(node int) {
	if node == 0 {
		return
	}
	s.mu.Lock()
	s.workers--
	s.cond.Broadcast()
	s.mu.Unlock()
}

// workDone returns a fleet worker's slot to the idle capacity after a
// dispatch completes.
func (s *Scheduler) workDone(node int) {
	if node == 0 {
		return
	}
	s.mu.Lock()
	s.running--
	s.cond.Broadcast()
	s.mu.Unlock()
}

// Submit enqueues a job under its tenant, blocking while that tenant's
// queue is full, and returns its ID. IDs are issued in call order, so a
// single-goroutine producer can replay results deterministically by
// waiting on them in order.
func (s *Scheduler) Submit(job Job) (JobID, error) {
	return s.enqueue(job, 0)
}

// Recover re-enqueues the journal's pending jobs — submits without a
// terminal record, in their original submission order and under their
// original IDs. rebuild turns a journal record back into a runnable Job
// (typically from Record.Spec); returning ok=false settles the record as
// failed in the journal so it does not replay forever. Recover is
// idempotent: jobs the scheduler already tracks are skipped, so calling
// it again (the serve protocol's `recover` command) is a no-op after a
// startup replay. It returns the number of jobs re-enqueued.
func (s *Scheduler) Recover(rebuild func(journal.Record) (Job, bool)) int {
	if s.cfg.Journal == nil {
		return 0
	}
	recovered := 0
	for _, rec := range s.cfg.Journal.Pending() {
		id := JobID(rec.Job)
		s.mu.Lock()
		_, tracked := s.states[id]
		s.mu.Unlock()
		if tracked {
			continue
		}
		job, ok := rebuild(rec)
		if !ok {
			s.journalAppend(journal.Record{
				Kind: journal.KindFailed, Job: rec.Job,
				Err: "not recoverable: " + rec.Spec,
			})
			continue
		}
		if job.Tenant == "" {
			job.Tenant = rec.Tenant
		}
		if job.Name == "" {
			job.Name = rec.Name
		}
		if _, err := s.enqueue(job, id); err != nil {
			break // closed mid-recovery; remaining records stay pending
		}
		recovered++
	}
	return recovered
}

// enqueue inserts the job under its tenant. forcedID 0 issues a fresh ID
// and journals a submit record; a nonzero forcedID is a journal replay —
// the submit record already exists, so none is written.
func (s *Scheduler) enqueue(job Job, forcedID JobID) (JobID, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return 0, ErrClosed
	}
	t := s.tenantLocked(job.Tenant)
	// Per-tenant backpressure: the reservation keeps the bound exact while
	// this submitter is between its space check and its queue append.
	for !s.closed && len(t.queue)+t.reserved >= t.depth {
		s.cond.Wait()
	}
	if s.closed {
		s.mu.Unlock()
		return 0, ErrClosed
	}
	t.reserved++
	// The inflight count keeps workers alive across the unlock window
	// below: a Close racing with this submit must not let the last worker
	// exit before the queue append lands, or the job would be stranded
	// (Wait would hang) and its events could outlive the caller's channel.
	s.inflight++
	id := forcedID
	if id == 0 {
		s.nextID++
		id = s.nextID
	} else if id > s.nextID {
		s.nextID = id
	}
	st := &jobState{
		id:     id,
		tenant: t.name,
		job:    job,
		done:   make(chan struct{}),
	}
	if s.fleet != nil && s.fleet.partitioned() && t.cfg.StoreBudget == 0 {
		// Shared-policy tenants analyze against the fleet's consistent-
		// hashed placement; the node view is resolved at dispatch time,
		// since the executing node is not known yet. Private and storeless
		// tenants keep their configured policy.
		st.fleetStore = true
	} else {
		st.store = t.bundleStore(s.cfg.Store)
	}
	s.states[id] = st
	t.submitted++
	s.mu.Unlock()

	if forcedID == 0 {
		s.journalAppend(journal.Record{
			Kind: journal.KindSubmit, Job: int64(id),
			Tenant: t.name, Name: job.Name, Spec: job.Spec,
		})
	}
	if tr := s.cfg.Trace; tr != nil {
		// The job's track opens with a queued instant at its origin; queue
		// wait is the gap to the dispatch instant (zero on the job-local
		// clock unless a handoff re-anchored the track).
		tr.Add(obs.Span{Job: int64(id), Sub: 0, Name: "queued", Cat: "sched",
			Start: 0, Dur: obs.Instant, Node: -1,
			Args: []obs.Arg{{Key: "app", Value: job.Name}, {Key: "tenant", Value: t.name}}})
	}
	// Queued is emitted before the job becomes dispatchable, so per-job
	// event order holds even when a worker grabs it immediately.
	s.emit(Event{Kind: EventQueued, Job: id, Name: job.Name})

	s.mu.Lock()
	t.reserved--
	s.inflight--
	t.queue = append(t.queue, st)
	s.cond.Broadcast()
	s.mu.Unlock()
	if s.fleet != nil && s.fleet.liveCount() == 0 {
		// A submit that lands after the last node died: no worker remains
		// to ever pop it, so settle it as failed instead of letting Wait
		// hang. (The fence itself fails the jobs queued at that moment.)
		s.failQueued()
	}
	return id, nil
}

// Cancel cancels a job. A still-queued job is settled as canceled when a
// worker reaches it (its terminal event is EventCanceled and Wait returns
// ErrCanceled); a running job gets a cooperative stop request that the
// engine's meter observes at its next cancellation checkpoint — within
// simtime.CancelCheckpointUnits of charged work — after which the same
// single terminal EventCanceled is emitted and no further sink events
// stream. Cancel returns false when the job is unknown, already finished
// or already canceled. A running job past its final checkpoint may still
// complete; the cancel request stands but the terminal event reports the
// outcome that actually happened.
func (s *Scheduler) Cancel(id JobID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.states[id]
	if !ok || st.canceled || st.cancelReq {
		return false
	}
	select {
	case <-st.done:
		return false
	default:
	}
	t := s.tenantLocked(st.tenant)
	if !st.started {
		st.canceled = true
		st.cancelJournaled = true
		t.canceledQueued++
		// Journal the settlement now, not when a worker eventually pops
		// the job: the caller was told the cancel took, so a crash (or
		// Halt) before dispatch must not resurrect the job on replay.
		s.mu.Unlock()
		s.journalAppend(journal.Record{Kind: journal.KindCanceled, Job: int64(st.id)})
		s.mu.Lock()
		return true
	}
	st.cancelReq = true
	st.cancelFlag.Store(true)
	t.canceledRunning++
	return true
}

// Wait blocks until the job finishes and returns its result. Canceled
// jobs return ErrCanceled. Wait is a join: the first Wait for an ID
// releases the scheduler's retained state, so a later Wait for the same
// ID returns ErrUnknownJob — without this, a long-running service would
// accumulate every finished job's full report forever. Clients that
// consume results through the event stream instead should reap finished
// jobs with Forget.
func (s *Scheduler) Wait(id JobID) (*JobResult, error) {
	s.mu.Lock()
	st, ok := s.states[id]
	s.mu.Unlock()
	if !ok {
		return nil, ErrUnknownJob
	}
	<-st.done
	s.mu.Lock()
	delete(s.states, id)
	s.mu.Unlock()
	return st.res, st.err
}

// Forget drops a finished job's retained state without reading its
// result — the reaping path for event-stream consumers. It returns false
// when the job is unknown or still pending/running.
func (s *Scheduler) Forget(id JobID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.states[id]
	if !ok {
		return false
	}
	select {
	case <-st.done:
		delete(s.states, id)
		return true
	default:
		return false
	}
}

// Close stops accepting submissions, drains every tenant queue, waits for
// running jobs and stops the workers. The events channel (if any)
// receives every pending event before Close returns; Close does not close
// it — the channel belongs to the caller. Submitters blocked on
// backpressure return ErrClosed.
func (s *Scheduler) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.cond.Broadcast()
	s.workerWG.Wait()
}

// Halt is the crash drill: it stops accepting submissions and stops
// dispatching — workers finish only the jobs already running — leaving
// every queued job unprocessed. With a journal configured those jobs
// remain pending on disk, exactly as if the process had been killed
// between jobs, so a restarted scheduler Recovers them. The CI
// crash-recovery leg uses it as a deterministic SIGKILL stand-in: unlike
// a real kill it never tears a job in half, so the interrupted run's
// output is exactly a prefix of the uninterrupted run's.
func (s *Scheduler) Halt() {
	s.mu.Lock()
	s.closed = true
	s.halted = true
	s.mu.Unlock()
	s.cond.Broadcast()
	s.workerWG.Wait()
}

// Journal returns the configured journal (nil when the queue is not
// durable).
func (s *Scheduler) Journal() *journal.Journal { return s.cfg.Journal }

// Reports returns the settled-result store (nil when the tier is
// disabled).
func (s *Scheduler) Reports() *ReportStore { return s.cfg.Reports }

// Metrics returns the registry every subsystem's counters collect into
// — the one source /metrics, the stats JSON and the stdin stats lines
// render from.
func (s *Scheduler) Metrics() *obs.Registry { return s.metrics }

// Trace returns the configured span trace (nil when tracing is off).
func (s *Scheduler) Trace() *obs.Trace { return s.cfg.Trace }

// traceBaseLocked reads a track's charged-units origin. Caller holds
// s.mu.
func traceBaseLocked(st *jobState, sub int) int64 {
	if st.traceBase == nil {
		return 0
	}
	return st.traceBase[sub]
}

// setTraceBaseLocked advances a track's charged-units origin — called
// when a handoff or steal re-anchors the range's next attempt. Caller
// holds s.mu.
func setTraceBaseLocked(st *jobState, sub int, v int64) {
	if st.traceBase == nil {
		st.traceBase = make(map[int]int64)
	}
	st.traceBase[sub] = v
}

// traceBaseOf is the locking wrapper of traceBaseLocked.
func (s *Scheduler) traceBaseOf(st *jobState, sub int) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return traceBaseLocked(st, sub)
}

// journalAppend writes one record (when a journal is configured) and
// charges the flat control-plane append cost, kept separate from per-job
// meters so journal overhead is measurable as a fraction of analysis
// work. Append failures are swallowed: durability is best-effort, the
// in-memory queue stays authoritative for this process's lifetime.
func (s *Scheduler) journalAppend(r journal.Record) {
	if s.cfg.Journal == nil {
		return
	}
	if err := s.cfg.Journal.Append(r); err == nil {
		s.journalUnits.Add(simtime.JournalAppendUnits)
	}
}

func (s *Scheduler) emit(ev Event) {
	if s.cfg.Events == nil {
		return
	}
	s.evMu.Lock()
	s.cfg.Events <- ev
	s.evMu.Unlock()
}

// nextWork blocks until something is dispatchable: a re-pended sink
// chunk (ahead of whole jobs — a lost range must not wait behind the
// backlog), then a queued job under the WRR policy, then — for an
// otherwise idle fleet node — a chunk stolen off a grinding heavy job.
// It returns (nil, nil) when the scheduler is halted, closed with every
// queue drained and every chunk-split job settled, or the pulling fleet
// node is dead — the worker exit conditions.
func (s *Scheduler) nextWork(node int) (*jobState, *chunkWork) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.halted {
			return nil, nil
		}
		if node > 0 && s.fleet.nodeDead(node) {
			return nil, nil
		}
		if cw := s.popChunk(node); cw != nil {
			if node > 0 {
				s.running++
			}
			return nil, cw
		}
		if st := s.popWRR(); st != nil {
			// A queue slot freed: wake submitters blocked on backpressure.
			s.cond.Broadcast()
			if node > 0 {
				s.running++
			}
			return st, nil
		}
		if node > 0 {
			if cw := s.trySteal(node); cw != nil {
				s.running++
				return nil, cw
			}
		}
		// Exit only once no submit is mid-append (one that already passed
		// its closed-check is about to enqueue a job this worker must run)
		// and no chunk-split job is unsettled (its merged settle may still
		// need this worker to run a re-pended or stolen range).
		if s.closed && s.inflight == 0 && (s.fleet == nil || s.chunkJobs == 0) {
			return nil, nil
		}
		if len(s.chunkQueue) > 0 {
			// Only declined chunks remain (a victim node refusing its own
			// stolen ranges): hand them to a parked worker before sleeping.
			s.cond.Broadcast()
		}
		s.cond.Wait()
	}
}

// popChunk pops the oldest pending chunk range, dropping ranges of jobs
// that settled while they waited. A stolen range is declined by its own
// victim's node while another worker could take it — otherwise, on a
// host where the victim's worker is the only goroutine getting CPU, it
// would drain its own shed chunks and the charged makespan would never
// improve. Caller holds s.mu.
func (s *Scheduler) popChunk(node int) *chunkWork {
	for i := 0; i < len(s.chunkQueue); i++ {
		cw := s.chunkQueue[i]
		if cw.st.settled {
			s.chunkQueue = append(s.chunkQueue[:i], s.chunkQueue[i+1:]...)
			i--
			continue
		}
		if cw.steal && node > 0 && cw.victim == node && s.workers-s.running > 1 {
			continue
		}
		s.chunkQueue = append(s.chunkQueue[:i], s.chunkQueue[i+1:]...)
		return cw
	}
	return nil
}

// trySteal scans the running chunk-split jobs for a stealable tail: a
// live victim with at least StealMinSinks unstarted sinks that has
// ground past StealAfterUnits of charged lease time. It fences the back
// half of the victim's remaining range (rounded up to the chunk grain,
// so steal boundaries land on stable chunk edges) and returns it as
// work for the idle node. Jobs are visited in ID order, so the oldest
// heavy job is relieved first. Caller holds s.mu.
func (s *Scheduler) trySteal(node int) *chunkWork {
	if s.fleet == nil {
		return nil
	}
	ids := make([]JobID, 0, len(s.states))
	for id := range s.states {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		st := s.states[id]
		if st.settled || st.chunk == nil {
			continue
		}
		if cw := s.stealWindow(st, st.chunk); cw != nil {
			return cw
		}
	}
	return nil
}

// stealWindow fences the back half of one job's remaining sink range
// (rounded up to the chunk grain, so steal boundaries land on stable
// chunk edges) and returns it as stealable work, or nil when the job
// has no stealable tail: victim gone, tail under StealMinSinks, or the
// victim not yet past StealAfterUnits of charged lease time. Caller
// holds s.mu.
func (s *Scheduler) stealWindow(st *jobState, cs *chunkState) *chunkWork {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if cs.total < 0 || !cs.victimLive {
		return nil
	}
	remaining := cs.fence - cs.started
	if remaining < simtime.StealMinSinks ||
		s.fleet.leaseUnits(st.id, 0) < s.cfg.StealAfterUnits {
		return nil
	}
	// Take the back half of the remaining range, rounded up to the
	// grain; the victim keeps the front it is already warm on.
	from := cs.started + (remaining+1)/2
	if g := cs.grain; g > 1 {
		if rem := from % g; rem != 0 {
			from += g - rem
		}
	}
	if from <= cs.started || from >= cs.fence {
		return nil
	}
	to := cs.fence
	cs.fence = from
	cs.steals++
	first := cs.steals == 1
	sub := from + 1
	cs.active[sub] = core.ChunkRange{From: from, To: to}
	if tr := s.cfg.Trace; tr != nil {
		// The shed lands on the victim's track at the units its lease has
		// metered so far (checkpoint-granular, so deterministic for a
		// victim grinding past a fixed warmup). Args carry the fenced sink
		// range; the claiming node appears in the chunk's own steal-claim
		// span.
		tr.Add(obs.Span{Job: int64(st.id), Sub: 0, Name: "steal-shed",
			Cat: "sched", Start: traceBaseLocked(st, 0) + s.fleet.leaseUnits(st.id, 0),
			Dur: obs.Instant, Node: -1, Args: []obs.Arg{
				{Key: "from", Value: fmt.Sprint(from)},
				{Key: "to", Value: fmt.Sprint(to)}}})
	}
	return &chunkWork{st: st, cs: cs, from: from, to: to, sub: sub,
		first: first, steal: true, victim: st.node}
}

// shedChunk is the push half of the steal protocol, driven from the
// victim's own progress poll: when idle nodes are waiting and no queued
// chunk is already destined for them, fence a chunk off this job's tail
// into the chunk queue. The pull half (trySteal) needs an idle worker
// to win the CPU while the victim grinds — on a single-core host the
// victim never yields mid-run, so the shed path makes the steal trigger
// independent of goroutine scheduling: the fenced range persists in the
// queue and the idle worker picks it up whenever it next runs.
func (s *Scheduler) shedChunk(st *jobState, cs *chunkState) {
	s.mu.Lock()
	defer s.mu.Unlock()
	avail := s.workers - s.running
	if avail <= 0 || len(s.chunkQueue) >= avail || st.settled || st.chunk != cs {
		return
	}
	if cw := s.stealWindow(st, cs); cw != nil {
		s.chunkQueue = append(s.chunkQueue, cw)
	}
}

// chunkPoll is the victim's SinkProgress hook: called before each sink
// at its canonical position. It publishes the victim's progress (the
// steal trigger's "unstarted tail" input), learns the total on the
// first poll, and stops the victim cleanly at the fence once a steal
// shrank its range. Each poll sheds a chunk to any idle node and wakes
// the waiters, so the steal trigger is re-evaluated exactly as often
// as progress is made.
func (s *Scheduler) chunkPoll(st *jobState, cs *chunkState, next, total int) bool {
	cs.mu.Lock()
	if cs.total < 0 {
		cs.total = total
		cs.fence = total
	}
	stop := next >= cs.fence
	if !stop {
		cs.started = next + 1
	}
	cs.mu.Unlock()
	if !stop {
		s.shedChunk(st, cs)
		s.cond.Broadcast()
	}
	return stop
}

// runChunk executes one stolen or re-pended sink range on a node: its
// own lease (keyed by the range's sub id), its own heartbeat stream,
// its own abandon path — a chunk is a first-class dispatch, just
// smaller than a job. A completed range feeds the merge; the range
// whose part completes coverage settles the job.
func (s *Scheduler) runChunk(cw *chunkWork, node int) {
	st, cs := cw.st, cw.cs
	s.mu.Lock()
	if st.settled {
		s.mu.Unlock()
		return
	}
	attempt := st.attempt
	if !cw.steal {
		// A re-pended range is a retry: bump the attempt so its lease is
		// distinguishable from the lost one and the backoff escalates.
		st.attempt++
		attempt = st.attempt
	}
	st.node = node
	var base int64
	if s.cfg.Trace != nil {
		if cw.steal {
			// A stolen chunk's track opens with the flat steal charge; the
			// engine's work starts after it.
			base = simtime.StealUnits
			setTraceBaseLocked(st, cw.sub, base)
		} else {
			// A re-pended range resumes on the origin the handoff advanced
			// the track to.
			base = traceBaseLocked(st, cw.sub)
		}
	}
	s.mu.Unlock()

	s.fleet.grant(st.id, cw.sub, cs.name, node, attempt)
	if cw.steal {
		// The steal record carries the thief node and the chunk's start
		// position (in Attempt — a chunk steal has no dispatch attempt of
		// its own).
		s.journalAppend(journal.Record{
			Kind: journal.KindSteal, Job: int64(st.id),
			Node: int64(node), Attempt: int64(cw.from),
		})
		s.fleet.chargeSteal(cw.to-cw.from, cw.first)
		if tr := s.cfg.Trace; tr != nil {
			tr.Add(obs.Span{Job: int64(st.id), Sub: cw.sub, Name: "steal-claim",
				Cat: "sched", Start: 0, Dur: simtime.StealUnits, Node: node,
				Args: []obs.Arg{
					{Key: "from", Value: fmt.Sprint(cw.from)},
					{Key: "to", Value: fmt.Sprint(cw.to)}}})
		}
	} else {
		s.journalAppend(journal.Record{
			Kind: journal.KindLease, Job: int64(st.id),
			Node: int64(node), Attempt: int64(attempt),
		})
	}
	rep, err := s.analyzeChunk(st, cs, cw, node, attempt, base)
	if s.fleet.nodeDead(node) && errors.Is(err, simtime.ErrCanceled) && !st.cancelFlag.Load() {
		// The node died under this chunk: no terminal — the sweep re-pends
		// the range on a surviving node.
		s.fleet.abandon(st.id, cw.sub, node, attempt)
		return
	}
	s.fleet.release(st.id, cw.sub, node, attempt)
	if err != nil {
		s.finish(st, nil, err)
		return
	}
	s.completeChunk(st, cs, cw.from, cw.to, cw.sub, rep)
}

// analyzeChunk runs the engine over one sink range of a job: the same
// app source, options, bundle store routing and observer wiring as the
// victim's full run, restricted by ChunkRange — the bundle is fetched
// warm (remotely charged when another node owns it), never re-built.
// base is the chunk track's charged-units origin; engine spans and
// checkpoint samples are re-anchored onto it.
func (s *Scheduler) analyzeChunk(st *jobState, cs *chunkState, cw *chunkWork, node, attempt int, base int64) (*core.Report, error) {
	job := st.job
	app, err := job.Source()
	if err != nil {
		return nil, err
	}
	o := s.jobOptions(job)
	flag := &st.cancelFlag
	user := o.Cancel
	o.Cancel = func() bool {
		return flag.Load() || (user != nil && user())
	}
	fl, id, name, sub := s.fleet, st.id, cs.name, cw.sub
	o.Heartbeat = func(delta int64) bool {
		return fl.tick(node, id, sub, name, attempt, delta)
	}
	o.ChunkRange = &core.ChunkRange{From: cw.from, To: cw.to}
	o.DeltaFrom = nil
	o.SinkProgress = nil
	if tr := s.cfg.Trace; tr != nil {
		o.PhaseSpan = func(phase string, sink int, start, end int64) {
			sp := obs.Span{Job: int64(id), Sub: sub, Name: phase, Cat: "engine",
				Start: base + start, Dur: end - start, Node: node}
			if sink >= 0 {
				sp.Args = []obs.Arg{{Key: "sink", Value: fmt.Sprint(sink)}}
			}
			tr.Add(sp)
		}
		o.MeterCheckpoint = func(units, delta int64) {
			tr.AddCounter(obs.CounterSample{Job: int64(id), Sub: sub, Node: node,
				TS: base + units, Value: base + units})
		}
	}
	var store jobStore
	if st.fleetStore {
		if v := s.fleet.view(node); v != nil {
			store = v
		}
	} else if st.store != nil {
		store = st.store
	}
	release := func() {}
	if store != nil {
		o.Bundles = store
		if !store.Contains(cs.fp) {
			release = store.LockFingerprint(cs.fp)
		}
	}
	if s.cfg.Events != nil {
		pos := cw.from
		traced := s.cfg.Trace != nil
		o.SinkObserver = func(sr *core.SinkReport) {
			ev := Event{Kind: EventSink, Job: id, Name: name, Sink: sr}
			if traced {
				// The engine reports the range's sinks in canonical order, so
				// the running position is the backslice span's sink arg.
				ev.Span = fmt.Sprintf("%d/%d/%d", id, sub, pos)
			}
			pos++
			s.emit(ev)
		}
	}
	e, err := core.New(app, o)
	if err != nil {
		release()
		if errors.Is(err, simtime.ErrCanceled) {
			return nil, err
		}
		return nil, fmt.Errorf("service: backdroid chunk [%d,%d) on %s: %w", cw.from, cw.to, name, err)
	}
	rep, err := e.Analyze()
	release()
	if err != nil {
		if errors.Is(err, simtime.ErrCanceled) {
			return nil, err
		}
		return nil, fmt.Errorf("service: backdroid chunk [%d,%d) on %s: %w", cw.from, cw.to, name, err)
	}
	return rep, nil
}

// completeChunk records one finished range's partial report and, once
// the parts cover [0, total), merges them canonically and settles the
// job — remembering the merged report as the next delta base and
// storing it under the same settled key a single-pass run would use
// (MergeReports is pinned bitwise-identical to that run). Two ranges
// completing coverage concurrently both merge; finish's at-most-once
// guard settles exactly one, and the duplicate content-addressed store
// put is a harmless refresh.
func (s *Scheduler) completeChunk(st *jobState, cs *chunkState, from, to, sub int, rep *core.Report) {
	s.mu.Lock()
	settled := st.settled
	s.mu.Unlock()
	if settled {
		return
	}
	cs.mu.Lock()
	if sub == 0 {
		cs.victimLive = false
	} else {
		delete(cs.active, sub)
	}
	cs.parts = append(cs.parts, chunkPart{from: from, to: to, rep: rep})
	total := cs.total
	parts := append([]chunkPart(nil), cs.parts...)
	cs.mu.Unlock()

	sort.Slice(parts, func(i, j int) bool { return parts[i].from < parts[j].from })
	cover := 0
	for _, p := range parts {
		if p.from > cover {
			break
		}
		if p.to > cover {
			cover = p.to
		}
	}
	if total < 0 || cover < total {
		return
	}
	reports := make([]*core.Report, len(parts))
	for i, p := range parts {
		reports[i] = p.rep
	}
	merged := core.MergeReports(reports...)
	if tr := s.cfg.Trace; tr != nil {
		cs.mu.Lock()
		emit := !cs.mergeTraced
		cs.mergeTraced = true
		cs.mu.Unlock()
		if emit {
			// Anchored at the merged report's total charged work — the sum
			// of every part's units, a pure function of the partition, not
			// of which range happened to complete coverage.
			tr.Add(obs.Span{Job: int64(st.id), Sub: 0, Name: "chunk-merge",
				Cat: "sched", Start: s.traceBaseOf(st, 0) + merged.Stats.WorkUnits,
				Dur: obs.Instant, Node: -1,
				Args: []obs.Arg{{Key: "total", Value: fmt.Sprint(total)}}})
		}
	}
	if cs.remember && !merged.TimedOut {
		s.rememberRun(st.tenant, cs.name, cs.fp, merged)
	}
	if s.cfg.Reports != nil && cs.haveKey {
		s.cfg.Reports.Put(cs.key, merged)
	}
	s.finish(st, &JobResult{ID: st.id, Name: cs.name, BackDroid: merged}, nil)
}

func (s *Scheduler) runJob(st *jobState, node int) {
	s.mu.Lock()
	if st.canceled {
		s.mu.Unlock()
		s.finish(st, nil, ErrCanceled)
		return
	}
	st.started = true
	st.attempt++
	st.node = node
	attempt := st.attempt
	seq := st.dispatchSeq
	base := traceBaseLocked(st, 0)
	s.mu.Unlock()

	if s.fleet != nil {
		s.fleet.grant(st.id, 0, st.job.Name, node, attempt)
		s.journalAppend(journal.Record{
			Kind: journal.KindLease, Job: int64(st.id),
			Node: int64(node), Attempt: int64(attempt),
		})
	}
	if tr := s.cfg.Trace; tr != nil {
		tr.Add(obs.Span{Job: int64(st.id), Sub: 0, Name: "dispatch", Cat: "sched",
			Start: base, Dur: obs.Instant, Node: node,
			Args: []obs.Arg{{Key: "attempt", Value: fmt.Sprint(attempt)}}})
	}
	if attempt == 1 {
		s.journalAppend(journal.Record{Kind: journal.KindStart, Job: int64(st.id)})
	}
	s.emit(Event{Kind: EventStarted, Job: st.id, Name: st.job.Name, Node: node, Attempt: attempt, Seq: seq})
	res, cs, err := s.analyze(st, node, attempt)
	fenced := false
	if cs != nil {
		// This victim attempt is over: no further steals off it. fenced
		// records whether a steal shrank its range — once the victim
		// returned, started == fence, so no new steal can land and the
		// flag is final.
		cs.mu.Lock()
		cs.victimLive = false
		fenced = cs.steals > 0
		cs.mu.Unlock()
	}
	if s.fleet != nil {
		if s.fleet.nodeDead(node) && errors.Is(err, simtime.ErrCanceled) && !st.cancelFlag.Load() {
			// The node died under this attempt (the engine aborted at the
			// checkpoint that observed the fencing, not by user cancel): no
			// terminal — abandon charges the detection latency, expires the
			// lease and hands the job to a surviving node.
			s.fleet.abandon(st.id, 0, node, attempt)
			return
		}
		s.fleet.release(st.id, 0, node, attempt)
	}
	if fenced && err == nil && res != nil && res.BackDroid != nil {
		// Chunks were stolen: the engine stopped at the fence and the
		// report is the partial [0, fence) — feed it to the merge instead
		// of settling; the range completing coverage settles the job.
		s.completeChunk(st, cs, 0, len(res.BackDroid.Sinks), 0, res.BackDroid)
		return
	}
	s.finish(st, res, err)
}

// finish settles a job: journal terminal record first (so a crash after
// the record never replays a delivered job), then the Done callback, then
// the join release, then the single terminal event. The join closes
// before the event so a consumer that reacts to the event with Forget —
// cmd/backdroidd's reaping path — always finds the job joinable; emitting
// first would make that Forget a silent no-op and leak the report.
//
// The settled guard makes termination at-most-once under fleet handoffs:
// when a fenced-but-still-working node (the gray-failure double run) and
// the re-dispatched attempt both reach finish, the first settles the job
// and the second returns without journaling, emitting or closing again.
func (s *Scheduler) finish(st *jobState, res *JobResult, err error) {
	s.mu.Lock()
	if st.settled {
		s.mu.Unlock()
		return
	}
	st.settled = true
	if st.chunk != nil {
		s.chunkJobs--
		st.chunk = nil
	}
	s.mu.Unlock()
	// Wake workers idling on the chunk-split exit condition (and any
	// stealer scanning for work that just disappeared).
	s.cond.Broadcast()
	kind := journal.KindDone
	ev := Event{Kind: EventDone, Job: st.id, Name: st.job.Name, Result: res}
	switch {
	case errors.Is(err, ErrCanceled) || errors.Is(err, simtime.ErrCanceled):
		err = ErrCanceled
		res = nil
		kind = journal.KindCanceled
		ev = Event{Kind: EventCanceled, Job: st.id, Name: st.job.Name}
	case err != nil:
		kind = journal.KindFailed
		ev = Event{Kind: EventFailed, Job: st.id, Name: st.job.Name, Err: err}
	}
	st.res, st.err = res, err
	if kind != journal.KindCanceled || !st.cancelJournaled {
		rec := journal.Record{Kind: kind, Job: int64(st.id)}
		if kind == journal.KindFailed {
			rec.Err = err.Error()
		}
		s.journalAppend(rec)
	}
	if st.job.Done != nil {
		st.job.Done(res, err)
	}
	close(st.done)
	s.emit(ev)
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
	if cs := st.chunk; cs != nil {
		var rng *core.ChunkRange
		cs.mu.Lock()
		if sub == 0 {
			if cs.steals > 0 {
				// The victim died after chunks were stolen: its remaining
				// range is [0, fence) — re-pend just that, as a plain chunk.
				cs.victimLive = false
				r := core.ChunkRange{From: 0, To: cs.fence}
				rng = &r
				cs.active[r.From+1] = r
			}
		} else if r, ok := cs.active[sub]; ok {
			rng = &r
		}
		cs.mu.Unlock()
		if rng != nil {
			if tr := s.cfg.Trace; tr != nil {
				// The handoff interval covers the detection latency (TTL) plus
				// the charged re-dispatch cost, starting where the lost lease's
				// metering stopped; the re-pended range's track resumes after
				// it.
				start := traceBaseLocked(st, sub) + units
				dur := simtime.LeaseTTLUnits + s.fleet.handoffUnits(attempt)
				tr.Add(obs.Span{Job: int64(id), Sub: sub, Name: "handoff",
					Cat: "sched", Start: start, Dur: dur, Node: -1,
					Args: []obs.Arg{{Key: "attempt", Value: fmt.Sprint(attempt)}}})
				setTraceBaseLocked(st, rng.From+1, start+dur)
			}
			s.chunkQueue = append(s.chunkQueue, &chunkWork{
				st: st, cs: cs, from: rng.From, to: rng.To, sub: rng.From + 1,
			})
			s.cond.Broadcast()
			s.mu.Unlock()
			s.journalAppend(journal.Record{
				Kind: journal.KindHandoff, Job: int64(id),
				Node: int64(from), Attempt: int64(attempt),
			})
			s.fleet.chargeHandoff(attempt)
			return
		}
		if sub > 0 {
			// The chunk's range already completed or re-pended elsewhere:
			// nothing left to recover from this lease.
			s.mu.Unlock()
			return
		}
	}
	if tr := s.cfg.Trace; tr != nil {
		start := traceBaseLocked(st, 0) + units
		dur := simtime.LeaseTTLUnits + s.fleet.handoffUnits(attempt)
		tr.Add(obs.Span{Job: int64(id), Sub: 0, Name: "handoff", Cat: "sched",
			Start: start, Dur: dur, Node: -1,
			Args: []obs.Arg{{Key: "attempt", Value: fmt.Sprint(attempt)}}})
		setTraceBaseLocked(st, 0, start+dur)
	}
	t := s.tenantLocked(st.tenant)
	t.queue = append([]*jobState{st}, t.queue...)
	t.requeued++
	s.cond.Broadcast()
	s.mu.Unlock()

	s.journalAppend(journal.Record{
		Kind: journal.KindHandoff, Job: int64(id),
		Node: int64(from), Attempt: int64(attempt),
	})
	s.fleet.chargeHandoff(attempt)
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

// jobStore is the bundle-store surface a job analyzes against: either a
// plain *BundleStore or a fleet placement view routing each fingerprint
// to its owner node's partition. Its method set covers core.BundleCache
// (plus the optional DropBundle seam), so either implementation plugs
// into the engine unchanged.
type jobStore interface {
	GetBundle(fp uint64) ([]byte, bool)
	PutBundle(fp uint64, data []byte)
	DropBundle(fp uint64)
	Contains(fp uint64) bool
	LockFingerprint(fp uint64) func()
}

// analyze materializes the job's app and runs the selected analyzers.
// Every job builds its own engines — no analysis state crosses jobs; the
// only shared objects are the content-addressed bundle stores, which are
// concurrency-safe and append-only. node/attempt identify the fleet
// dispatch (0/1 without a fleet); they are passed as values because a
// handed-off job's jobState fields may be rewritten by the re-dispatch
// while the abandoned attempt is still in here. The returned chunkState
// is non-nil when this attempt registered as steal-eligible — the
// caller routes its (possibly fenced, partial) report to the merge; it
// is returned rather than re-read from st.chunk because a gray-failure
// re-dispatch may have replaced st.chunk while this attempt ran.
func (s *Scheduler) analyze(st *jobState, node, attempt int) (*JobResult, *chunkState, error) {
	var cs *chunkState
	job := st.job
	app, err := job.Source()
	if err != nil {
		return nil, nil, err
	}
	res := &JobResult{ID: st.id, Name: job.Name}
	if res.Name == "" {
		res.Name = app.Name
	}

	if job.RunBackDroid {
		o := s.jobOptions(job)
		// Cooperative cancellation: the engine's meter polls this flag at
		// every checkpoint; Scheduler.Cancel flips it. A job-supplied
		// Cancel still applies — either source stops the run. In fleet
		// mode the same checkpoint is the node's heartbeat: the tick
		// advances the node odometer and fleet clock by the charged
		// delta, meters the lease, consults the fault plan and reports
		// the node's own death, which aborts the run like a cancel.
		flag := &st.cancelFlag
		user := o.Cancel
		o.Cancel = func() bool {
			return flag.Load() || (user != nil && user())
		}
		if s.fleet != nil {
			fl, id, name := s.fleet, st.id, job.Name
			o.Heartbeat = func(delta int64) bool {
				return fl.tick(node, id, 0, name, attempt, delta)
			}
		}
		if tr := s.cfg.Trace; tr != nil {
			// Engine phases land on the job's main track (sub 0), anchored
			// at the charged units the engine itself reports — plus the
			// track origin a prior handoff may have advanced. The counter
			// sample doubles as the lease-renew/heartbeat event: in fleet
			// mode the meter checkpoint IS the heartbeat, so one sample per
			// renewal is exactly the renewal timeline.
			id, base := st.id, s.traceBaseOf(st, 0)
			o.PhaseSpan = func(phase string, sink int, start, end int64) {
				sp := obs.Span{Job: int64(id), Sub: 0, Name: phase, Cat: "engine",
					Start: base + start, Dur: end - start, Node: node}
				if sink >= 0 {
					sp.Args = []obs.Arg{{Key: "sink", Value: fmt.Sprint(sink)}}
				}
				tr.Add(sp)
			}
			o.MeterCheckpoint = func(units, delta int64) {
				tr.AddCounter(obs.CounterSample{Job: int64(id), Sub: 0, Node: node,
					TS: base + units, Value: base + units})
			}
		}
		var store jobStore
		if st.fleetStore {
			if v := s.fleet.view(node); v != nil {
				store = v
			}
		} else if st.store != nil {
			store = st.store
		}
		var fp uint64
		if store != nil || s.cfg.Reports != nil {
			fp = app.Fingerprint()
		}
		// Settled-result fast path. The key is taken before the delta
		// base, bundle cache or observer wiring is injected — all
		// fingerprint-neutral — so a delta run, a warm run and a cold run
		// of one (app, options) pair share one address, and a hit skips
		// the engine entirely.
		var settledKey ReportKey
		if s.cfg.Reports != nil {
			settledKey = ReportKey{App: fp, Options: OptionsFingerprint(&o)}
			if stored, ok := s.cfg.Reports.Get(settledKey); ok {
				rep, err := s.serveSettled(st, res.Name, stored, o.TimeoutMinutes)
				if err != nil {
					return nil, nil, err
				}
				res.BackDroid = rep
				if store != nil && !stored.TimedOut {
					// Seed the delta path only when nothing better is
					// known: an engine-produced prev carries the sink
					// footprints the settled copy may lack
					// (journal-recovered entries never have them), and
					// clobbering it would degrade the next update's
					// reuse.
					if _, known := s.lastRun(st.tenant, res.Name); !known {
						s.rememberRun(st.tenant, res.Name, fp, stored)
					}
				}
			}
		}
		if res.BackDroid == nil {
			release := func() {}
			if store != nil {
				o.Bundles = store
				if prev, ok := s.lastRun(st.tenant, res.Name); ok && prev.fp != fp && !o.PerAppSSG {
					// Same job name, different content: an app update. When
					// the prior version's bundle is still cached, hand it to
					// the engine as the delta base; the engine itself falls
					// back to a full run if the base proves unusable.
					if data, ok := store.GetBundle(prev.fp); ok {
						o.DeltaFrom = &core.DeltaBase{Fingerprint: prev.fp, Bundle: data, Report: prev.report}
					}
				}
				if !store.Contains(fp) {
					// Single-build guarantee: concurrent jobs for one
					// fingerprint serialize here, so the first performs the
					// only cold build and the rest run fully warm. The
					// re-probe happens inside the engine; the lock is held
					// only across the engine run (the bundle is published
					// during it), never across the baseline legs below.
					release = store.LockFingerprint(fp)
				}
			}
			if s.cfg.Events != nil {
				id, name := st.id, res.Name
				pos := 0
				traced := s.cfg.Trace != nil
				o.SinkObserver = func(sr *core.SinkReport) {
					ev := Event{Kind: EventSink, Job: id, Name: name, Sink: sr}
					if traced {
						// Sinks stream in canonical order, so the running
						// position names the backslice span that produced
						// this report.
						ev.Span = fmt.Sprintf("%d/%d/%d", id, 0, pos)
					}
					pos++
					s.emit(ev)
				}
			}
			if s.fleet != nil && o.SinkChunk > 0 && o.TimeoutMinutes == 0 &&
				o.DeltaFrom == nil && !job.RunWholeApp && !job.RunCallGraph {
				// Steal-eligible: register the chunk fan-out state and let
				// the engine report per-sink progress. Delta runs and timed
				// runs stay unsplit (a chunk must not depend on a delta base
				// the other chunks lack, and the simulated timeout is a
				// whole-run budget); multi-analyzer jobs settle a composite
				// result the merge path does not carry.
				cs = &chunkState{
					grain:      o.SinkChunk,
					total:      -1,
					victimLive: true,
					active:     make(map[int]core.ChunkRange),
					fp:         fp,
					key:        settledKey,
					haveKey:    s.cfg.Reports != nil,
					remember:   store != nil,
					name:       res.Name,
				}
				s.mu.Lock()
				// A fenced node's stale attempt can get here after the
				// job already settled; counting it then would leak
				// chunkJobs (finish never runs again) and wedge Close.
				if !st.settled {
					if st.chunk == nil {
						s.chunkJobs++
					}
					st.chunk = cs
				}
				s.mu.Unlock()
				stRef, csRef := st, cs
				o.SinkProgress = func(next, total int) bool {
					return s.chunkPoll(stRef, csRef, next, total)
				}
			}
			e, err := core.New(app, o)
			if err != nil {
				release()
				if errors.Is(err, simtime.ErrCanceled) {
					return nil, cs, err
				}
				return nil, cs, fmt.Errorf("service: backdroid on %s: %w", res.Name, err)
			}
			res.BackDroid, err = e.Analyze()
			release()
			if err != nil {
				if errors.Is(err, simtime.ErrCanceled) {
					return nil, cs, err
				}
				return nil, cs, fmt.Errorf("service: backdroid on %s: %w", res.Name, err)
			}
			fenced := false
			if cs != nil {
				cs.mu.Lock()
				fenced = cs.steals > 0
				cs.mu.Unlock()
			}
			if !fenced {
				// A fenced run's report is the partial [0, fence): only the
				// merged union may seed the delta path or settle the store.
				if store != nil && !res.BackDroid.TimedOut {
					s.rememberRun(st.tenant, res.Name, fp, res.BackDroid)
				}
				if s.cfg.Reports != nil {
					// Settle the report under its content address. Timed-out
					// reports settle too: the timeout is simulated-time
					// deterministic and TimeoutMinutes is hashed, so a
					// resubmission would reproduce the same truncated report.
					s.cfg.Reports.Put(settledKey, res.BackDroid)
				}
			}
		}
	}
	if job.RunWholeApp {
		res.WholeApp, err = runWholeApp(app, wholeapp.FullAnalysis)
		if err != nil {
			return nil, cs, fmt.Errorf("service: wholeapp on %s: %w", res.Name, err)
		}
	}
	if job.RunCallGraph {
		res.CallGraph, err = runWholeApp(app, wholeapp.CallGraphOnly)
		if err != nil {
			return nil, cs, fmt.Errorf("service: callgraph on %s: %w", res.Name, err)
		}
	}
	return res, cs, nil
}

// serveSettled answers a job from the settled-result tier: one flat
// O(1) lookup charge, a replayed EventSink per stored sink and a shallow
// copy of the stored report whose Stats describe this serving (one
// settled lookup) rather than the original run. The copy shares the
// stored report's sink pointers, so streamed events and the batch result
// reference the same objects — exactly the engine's own contract.
func (s *Scheduler) serveSettled(st *jobState, name string, stored *core.Report, timeoutMinutes float64) (*core.Report, error) {
	if st.cancelFlag.Load() {
		return nil, simtime.ErrCanceled
	}
	m := simtime.NewMeterWithTimeout(timeoutMinutes)
	if err := m.ChargeSettledLookup(); err != nil {
		return nil, err
	}
	if tr := s.cfg.Trace; tr != nil {
		// A settled hit is the job's entire timeline: one flat lookup,
		// no engine phases. Replayed sink events carry no span id — no
		// backslice span produced them.
		tr.Add(obs.Span{Job: int64(st.id), Sub: 0, Name: "settled-hit",
			Cat: "sched", Start: 0, Dur: simtime.SettledLookupUnits, Node: -1})
	}
	replay := *stored
	replay.Stats = core.Stats{
		WorkUnits:      m.Units(),
		SimMinutes:     m.Minutes(),
		SettledLookups: 1,
	}
	if s.cfg.Events != nil {
		for _, sr := range replay.Sinks {
			s.emit(Event{Kind: EventSink, Job: st.id, Name: name, Sink: sr})
		}
	}
	return &replay, nil
}

// lastRun returns the remembered prior analysis of a tenant's job name.
func (s *Scheduler) lastRun(tenant, name string) (prevRun, bool) {
	s.prevMu.Lock()
	defer s.prevMu.Unlock()
	p, ok := s.prev[prevKey(tenant, name)]
	return p, ok
}

// rememberRun records a settled analysis as the delta base for the next
// submission of the same name. Timed-out reports are not remembered —
// their sink list is incomplete, so they cannot seed a reuse decision.
func (s *Scheduler) rememberRun(tenant, name string, fp uint64, report *core.Report) {
	s.prevMu.Lock()
	defer s.prevMu.Unlock()
	s.prev[prevKey(tenant, name)] = prevRun{fp: fp, report: report}
}

// jobOptions resolves the engine options of a job: its own, else the
// scheduler default, else core.DefaultOptions — always a copy, never a
// shared pointer — with the cache-directory override applied.
func (s *Scheduler) jobOptions(job Job) core.Options {
	o := core.DefaultOptions()
	if job.Options != nil {
		o = *job.Options
	} else if s.cfg.Options != nil {
		o = *s.cfg.Options
	}
	if job.IndexCacheDir != "" {
		o.IndexCacheDir = job.IndexCacheDir
	} else if s.cfg.IndexCacheDir != "" && o.IndexCacheDir == "" {
		o.IndexCacheDir = s.cfg.IndexCacheDir
	}
	return o
}

func runWholeApp(app *apk.App, mode wholeapp.Mode) (*wholeapp.Report, error) {
	o := wholeapp.DefaultOptions()
	o.Mode = mode
	a, err := wholeapp.New(app, o)
	if err != nil {
		return nil, err
	}
	return a.Analyze()
}
