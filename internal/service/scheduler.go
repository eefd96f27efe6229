package service

import (
	"errors"
	"fmt"
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
	// the producer). 0 defaults to 2*Workers.
	QueueDepth int
	// Tenants preconfigures named tenants' weights. Jobs for tenants
	// absent here are admitted under the zero TenantConfig: weight 1.
	Tenants map[string]TenantConfig
	// Options is the default engine configuration for jobs that carry
	// none; nil uses core.DefaultOptions.
	Options *core.Options
	// Store is the shared in-memory content-addressed bundle store; nil
	// disables in-memory reuse. With a store, re-submitting an app whose
	// fingerprint is cached performs zero disassembly, zero index builds
	// and zero bundle disk I/O, and concurrent submissions of one
	// fingerprint serialize so the bundle is built exactly once. Every
	// tenant and every fleet node shares it.
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
	// goes mute has its jobs handed off to surviving nodes. Every node
	// analyzes against Config.Store. See DESIGN.md Sec. 12.
	Nodes int
	// NodeStoreBudget does nothing: every dispatch, on a fleet or not,
	// analyzes against Config.Store. It is kept because the wall-clock
	// benchmark (cmd/backdroidbench) sets it to -1.
	NodeStoreBudget int64
	// Faults is the deterministic chaos plan threaded through the
	// dispatch loop (node/job kills, heartbeat drops) and the journal
	// append path (record corruption); nil injects nothing. See
	// internal/faultinject.
	Faults *faultinject.Plan
	// SinkChunk is the grain of sink-chunk stealing: a job's located
	// sink calls partition into chunks of this many consecutive
	// positions of the canonical (line-ordered) sink list, and a stolen
	// range is always chunk-aligned. Chunk boundaries drive steal
	// decisions, never the analysis, so reports do not depend on it.
	// 0 means 8; < 0 disables sink-chunk stealing (the job is the
	// placement unit). Only meaningful with Nodes > 0.
	SinkChunk int
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
	chunkQueue []*work
	chunkJobs  int
	workers    int
	running    int

	journalUnits atomic.Int64 // control-plane work charged for appends
	panics       atomic.Int64 // dispatch attempts failed by a recovered panic

	// prev remembers, per tenant+job name, the last successfully analyzed
	// version: its content fingerprint and settled report. A resubmission
	// of the same name with a different fingerprint is an app update; when
	// the prior bundle is still in the store, the job runs the engine's
	// incremental delta path against it (core.Options.DeltaFrom). The
	// map only holds bases whose bundle the store holds (see rememberRun).
	prevMu sync.Mutex
	prev   map[string]prevRun

	workerWG sync.WaitGroup
	evMu     sync.Mutex

	// fleet is the multi-node layer (nil when Config.Nodes == 0): node
	// liveness, per-job leases and handoff accounting.
	fleet *fleet

	// metrics is the scheduler's registry: every subsystem's counters
	// are collected into it (registerMetrics).
	metrics *obs.Registry
}

type jobState struct {
	id              JobID
	tenant          string
	job             Job
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
	if cfg.SinkChunk == 0 {
		cfg.SinkChunk = 8
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
		s.fleet = newFleet(cfg.Nodes, cfg.Faults)
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
				w := s.nextWork(node)
				if w == nil {
					return
				}
				s.runWork(w, node)
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
	for !s.closed && len(t.queue)+t.reserved >= s.cfg.QueueDepth {
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

// nextWork blocks until something is dispatchable: a queued sink chunk
// — re-pended after a lost node, or shed by a grinding heavy job's
// progress poll — ahead of whole jobs (a lost range must not wait
// behind the backlog), then a queued job under the WRR policy.
// It returns nil when the scheduler is halted, closed with every queue
// drained and every chunk-split job settled, or the pulling fleet node
// is dead — the worker exit conditions.
func (s *Scheduler) nextWork(node int) *work {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.halted {
			return nil
		}
		if node > 0 && s.fleet.nodeDead(node) {
			return nil
		}
		w := s.popChunk(node)
		if w == nil {
			if st := s.popWRR(); st != nil {
				// A queue slot freed: wake submitters blocked on backpressure.
				s.cond.Broadcast()
				w = &work{st: st}
			}
		}
		if w != nil {
			if node > 0 {
				s.running++
			}
			return w
		}
		// Exit only once no submit is mid-append (one that already passed
		// its closed-check is about to enqueue a job this worker must run)
		// and no chunk-split job is unsettled (its merged settle may still
		// need this worker to run a re-pended or stolen range).
		if s.closed && s.inflight == 0 && (s.fleet == nil || s.chunkJobs == 0) {
			return nil
		}
		if len(s.chunkQueue) > 0 {
			// Only declined chunks remain (a victim node refusing its own
			// stolen ranges): hand them to a parked worker before sleeping.
			s.cond.Broadcast()
		}
		s.cond.Wait()
	}
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
	// Wake workers idling on the chunk-split exit condition.
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
