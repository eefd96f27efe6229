// Package api is the typed service surface of the batch analysis
// daemon: request/response types shared by every front end, a
// Dispatcher that owns the scheduler's event stream, and renderers that
// print the stdin wire protocol byte-for-byte. cmd/backdroidd's stdin
// loop and its HTTP/JSON gateway are both thin adapters over this
// package — one Dispatcher, two transports — so a command behaves
// identically regardless of which front end carried it.
package api

import (
	"errors"
	"fmt"
	"strings"
	"sync"

	"backdroid/internal/apk"
	"backdroid/internal/core"
	"backdroid/internal/obs"
	"backdroid/internal/service"
	"backdroid/internal/service/journal"
)

// Version is the API version stamped into every JSON response as
// api_version. Bump it when a response shape changes incompatibly.
const Version = 2

// SubmitRequest queues one app container for analysis. Path is the
// container on disk (opened lazily on the worker, so a bad path
// surfaces as a failed job, not a submit error); Tenant selects the
// analysis stream ("" = default); Name labels events ("" derives the
// label from the path basename).
type SubmitRequest struct {
	Tenant string `json:"tenant,omitempty"`
	Path   string `json:"path"`
	Name   string `json:"name,omitempty"`
}

// QueryRequest identifies one job for a status lookup.
type QueryRequest struct {
	ID int64 `json:"id"`
}

// CancelRequest identifies one job to cancel.
type CancelRequest struct {
	ID int64 `json:"id"`
}

// StatsRequest asks for the service counters (no parameters; it exists
// so every verb has a typed request).
type StatsRequest struct{}

// ReportRequest addresses one settled report by its content-address
// pair.
type ReportRequest struct {
	App     uint64 `json:"app_fingerprint"`
	Options uint64 `json:"options_fingerprint"`
}

// SubmitResponse acknowledges an accepted submission.
type SubmitResponse struct {
	APIVersion int    `json:"api_version"`
	ID         int64  `json:"id"`
	App        string `json:"app"`
	Tenant     string `json:"tenant,omitempty"`
	State      string `json:"state"`
}

// Job states, as JobStatus.State reports them.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// JobStatus is the response of a status query: the job's lifecycle
// state plus, once terminal, its report or error.
type JobStatus struct {
	APIVersion int         `json:"api_version"`
	ID         int64       `json:"id"`
	App        string      `json:"app"`
	Tenant     string      `json:"tenant,omitempty"`
	State      string      `json:"state"`
	Error      string      `json:"error,omitempty"`
	Report     *ReportJSON `json:"report,omitempty"`
}

// CancelResponse acknowledges a delivered cancel request.
type CancelResponse struct {
	APIVersion int   `json:"api_version"`
	ID         int64 `json:"id"`
	Canceled   bool  `json:"canceled"`
}

// RecoverResponse reports a journal replay.
type RecoverResponse struct {
	APIVersion int `json:"api_version"`
	Jobs       int `json:"jobs"`
}

// StatsResponse carries the service counters: the metrics registry
// snapshot, every registered series by its name{labels} id, so the JSON
// surface exposes exactly the set /metrics serves and the stdin stats
// lines print. Histograms contribute their sample count.
type StatsResponse struct {
	APIVersion int              `json:"api_version"`
	Metrics    map[string]int64 `json:"metrics"`
}

// ReportResponse serves one settled report from the content-addressed
// store. Encoded is the canonical settled-report byte form
// (service.EncodeReport) — the representation the benchgate compares
// bitwise — so gateway clients can verify integrity without re-deriving
// the canonical rendering from JSON.
type ReportResponse struct {
	APIVersion int        `json:"api_version"`
	App        string     `json:"app_fingerprint"`
	Options    string     `json:"options_fingerprint"`
	Report     ReportJSON `json:"report"`
	Encoded    []byte     `json:"encoded"` // base64 in JSON
}

// SinkJSON is one per-sink verdict in a response.
type SinkJSON struct {
	Sink      string   `json:"sink"`
	Caller    string   `json:"caller"`
	Line      int      `json:"line"`
	Reachable bool     `json:"reachable"`
	Insecure  bool     `json:"insecure"`
	Cached    bool     `json:"cached,omitempty"`
	Reused    bool     `json:"reused,omitempty"`
	Values    []string `json:"values"`
}

// ReportStatsJSON carries the cost counters the stdin protocol's done
// line prints, under the same names.
type ReportStatsJSON struct {
	Units          int64  `json:"units"`
	Store          string `json:"store"`
	Disassembled   int64  `json:"disassembled"`
	Builds         int    `json:"builds"`
	Memo           int64  `json:"memo"`
	SettledLookups int    `json:"settled_lookups,omitempty"`
	SinksReused    int    `json:"sinks_reused,omitempty"`
	SinksRerun     int    `json:"sinks_rerun,omitempty"`
}

// ReportJSON is the JSON view of a terminal report: the detection
// surface plus (for job results) the run's cost counters.
type ReportJSON struct {
	App        string           `json:"app"`
	TimedOut   bool             `json:"timed_out,omitempty"`
	Registered []string         `json:"registered,omitempty"`
	Sinks      []SinkJSON       `json:"sinks"`
	Insecure   int              `json:"insecure"`
	Stats      *ReportStatsJSON `json:"stats,omitempty"`
}

// reportJSON renders a core.Report; withStats controls the cost block
// (settled-report serving omits it — the canonical encoding has no
// stats either).
func reportJSON(r *core.Report, withStats bool) *ReportJSON {
	out := &ReportJSON{
		App:        r.App,
		TimedOut:   r.TimedOut,
		Registered: r.Registered,
		Insecure:   len(r.InsecureSinks()),
		Sinks:      make([]SinkJSON, 0, len(r.Sinks)),
	}
	for _, s := range r.Sinks {
		out.Sinks = append(out.Sinks, SinkJSON{
			Sink:      s.Call.Sink.Method.SootSignature(),
			Caller:    s.Call.Caller.SootSignature(),
			Line:      s.Call.Line,
			Reachable: s.Reachable,
			Insecure:  s.Insecure,
			Cached:    s.Cached,
			Reused:    s.Reused,
			Values:    s.Values,
		})
	}
	if withStats {
		st := r.Stats
		out.Stats = &ReportStatsJSON{
			Units:          st.WorkUnits,
			Store:          storeState(st),
			Disassembled:   st.DumpLinesDisassembled,
			Builds:         st.Search.IndexBuilds,
			Memo:           st.ForwardMemoHits,
			SettledLookups: st.SettledLookups,
			SinksReused:    st.SinksReused,
			SinksRerun:     st.SinksRerun,
		}
	}
	return out
}

// storeState classifies a run's warm-start outcome the way the done
// line prints it. A settled-lookup serving counts as a hit: the report
// came out of process memory with zero engine work, the strongest form
// of reuse the service has.
func storeState(st core.Stats) string {
	switch {
	case st.SettledLookups > 0, st.BundleStoreHits > 0:
		return "hit"
	case st.BundleStoreMisses > 0:
		return "miss"
	}
	return "off"
}

// jobHistory bounds the retained terminal job statuses (oldest evicted
// first).
const jobHistory = 4096

// Dispatcher is the shared service core both front ends drive: it owns
// the scheduler and its event stream, tracks per-job status for the
// query API, reaps finished jobs from the scheduler (Forget) and fans
// events out to any number of subscribers (the stdin printer, SSE
// handlers). All methods are safe for concurrent use.
type Dispatcher struct {
	sched   *service.Scheduler
	events  chan service.Event
	drained chan struct{}

	mu       sync.Mutex
	jobs     map[int64]*JobStatus
	terminal []int64 // terminal job ids, oldest first (eviction order)
	subs     map[int]*Subscription
	nextSub  int
	closed   bool
}

// NewDispatcher builds the scheduler from cfg and starts the event drain
// loop. cfg.Events is owned by the Dispatcher and must be nil: the
// Dispatcher creates the channel, drains it, maintains the job-status
// table and fans events out to subscribers.
func NewDispatcher(cfg service.Config) *Dispatcher {
	d := &Dispatcher{
		events:  make(chan service.Event, 64),
		drained: make(chan struct{}),
		jobs:    make(map[int64]*JobStatus),
		subs:    make(map[int]*Subscription),
	}
	cfg.Events = d.events
	d.sched = service.New(cfg)
	go d.drain()
	return d
}

// Scheduler exposes the underlying scheduler (for stats accessors and
// tests); submitting around the Dispatcher skips the status table.
func (d *Dispatcher) Scheduler() *service.Scheduler { return d.sched }

// drain consumes the scheduler's event stream: status table first, then
// subscriber fan-out, then the Forget reap — so by the time a
// subscriber sees a terminal event, Query already answers with the
// terminal state, and the scheduler has released the job either way.
func (d *Dispatcher) drain() {
	defer close(d.drained)
	for ev := range d.events {
		d.apply(ev)
		d.mu.Lock()
		for _, sub := range d.subs {
			sub.push(ev)
		}
		d.mu.Unlock()
		switch ev.Kind {
		case service.EventDone, service.EventFailed, service.EventCanceled:
			d.sched.Forget(ev.Job)
		}
	}
	d.mu.Lock()
	for _, sub := range d.subs {
		sub.close()
	}
	d.subs = make(map[int]*Subscription)
	d.mu.Unlock()
}

// statusLocked returns (creating if absent) the tracked status of a job.
func (d *Dispatcher) statusLocked(id int64, name string) *JobStatus {
	st, ok := d.jobs[id]
	if !ok {
		st = &JobStatus{APIVersion: Version, ID: id}
		d.jobs[id] = st
	}
	if st.App == "" {
		st.App = name
	}
	return st
}

// apply folds one event into the job-status table.
func (d *Dispatcher) apply(ev service.Event) {
	d.mu.Lock()
	defer d.mu.Unlock()
	st := d.statusLocked(int64(ev.Job), ev.Name)
	switch ev.Kind {
	case service.EventQueued:
		st.State = StateQueued
	case service.EventStarted:
		st.State = StateRunning
	case service.EventSink:
		// Per-sink progress is delivered through subscriptions; the
		// status table carries only the terminal report.
	case service.EventDone:
		st.State = StateDone
		if ev.Result != nil && ev.Result.BackDroid != nil {
			st.Report = reportJSON(ev.Result.BackDroid, true)
		}
		d.settleLocked(st)
	case service.EventFailed:
		st.State = StateFailed
		if ev.Err != nil {
			st.Error = ev.Err.Error()
		}
		d.settleLocked(st)
	case service.EventCanceled:
		st.State = StateCanceled
		d.settleLocked(st)
	}
}

// settleLocked records a terminal transition and evicts the oldest
// terminal statuses beyond the history bound.
func (d *Dispatcher) settleLocked(st *JobStatus) {
	d.terminal = append(d.terminal, st.ID)
	for len(d.terminal) > jobHistory {
		delete(d.jobs, d.terminal[0])
		d.terminal = d.terminal[1:]
	}
}

// jobName derives the event label from a container path, exactly as the
// stdin protocol always has: the basename without its .apk suffix.
func jobName(path string) string {
	return strings.TrimSuffix(path[strings.LastIndexByte(path, '/')+1:], ".apk")
}

// job checks a submission's fields and turns it into the job it
// queues: a BackDroid analysis of the container at Path, journaled under
// Path so a replay can rebuild it, labelled Name or else the path's
// basename without ".apk".
func (req SubmitRequest) job() (service.Job, error) {
	if req.Path == "" {
		return service.Job{}, errors.New("submit wants a path")
	}
	name := req.Name
	if name == "" {
		name = jobName(req.Path)
	}
	path := req.Path
	return service.Job{
		Name:         name,
		Tenant:       req.Tenant,
		Spec:         path,
		Source:       func() (*apk.App, error) { return apk.Load(path) },
		RunBackDroid: true,
	}, nil
}

// Submit queues one job. The returned state is always StateQueued: the
// job may already be running (or even settled) by the time the caller
// reads the response, which Query reflects.
func (d *Dispatcher) Submit(req SubmitRequest) (SubmitResponse, error) {
	job, err := req.job()
	if err != nil {
		return SubmitResponse{}, err
	}
	id, err := d.sched.Submit(job)
	if err != nil {
		return SubmitResponse{}, err
	}
	d.mu.Lock()
	st := d.statusLocked(int64(id), job.Name)
	st.Tenant = req.Tenant
	if st.State == "" {
		st.State = StateQueued
	}
	d.mu.Unlock()
	return SubmitResponse{
		APIVersion: Version, ID: int64(id), App: job.Name,
		Tenant: req.Tenant, State: StateQueued,
	}, nil
}

// Cancel cancels a queued or running job; the error carries the exact
// diagnostic the stdin protocol prints.
func (d *Dispatcher) Cancel(req CancelRequest) (CancelResponse, error) {
	if !d.sched.Cancel(service.JobID(req.ID)) {
		return CancelResponse{}, fmt.Errorf(
			"job %d not cancelable (unknown, finished or already canceled)", req.ID)
	}
	return CancelResponse{APIVersion: Version, ID: req.ID, Canceled: true}, nil
}

// Query returns the tracked status of a job.
func (d *Dispatcher) Query(req QueryRequest) (JobStatus, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	st, ok := d.jobs[req.ID]
	if !ok {
		return JobStatus{}, fmt.Errorf("unknown job %d", req.ID)
	}
	return *st, nil
}

// Stats snapshots every service counter from the metrics registry.
func (d *Dispatcher) Stats(StatsRequest) StatsResponse {
	return StatsResponse{APIVersion: Version, Metrics: metricsMap(d.sched.Metrics().Snapshot())}
}

// metricsMap flattens a registry snapshot into the JSON metrics block:
// series id -> value, histograms contributing their sample count.
func metricsMap(snap obs.Snapshot) map[string]int64 {
	m := make(map[string]int64, len(snap))
	for _, mt := range snap {
		v := mt.Value
		if mt.Kind == obs.HistogramKind {
			v = mt.Hist.Count
		}
		m[mt.ID()] = v
	}
	return m
}

// Metrics returns the scheduler's metrics registry — the /metrics
// handler's source.
func (d *Dispatcher) Metrics() *obs.Registry { return d.sched.Metrics() }

// Trace returns the configured span trace (nil when tracing is off) —
// the /v1/trace handler's source.
func (d *Dispatcher) Trace() *obs.Trace { return d.sched.Trace() }

// Report serves one settled report from the content-addressed store.
func (d *Dispatcher) Report(req ReportRequest) (ReportResponse, error) {
	reports := d.sched.Reports()
	if reports == nil {
		return ReportResponse{}, errors.New("settled-report store disabled")
	}
	key := service.ReportKey{App: req.App, Options: req.Options}
	r, ok := reports.Get(key)
	if !ok {
		return ReportResponse{}, fmt.Errorf("no settled report for %016x/%016x", req.App, req.Options)
	}
	enc, _ := reports.Encoded(key)
	return ReportResponse{
		APIVersion: Version,
		App:        fmt.Sprintf("%016x", req.App),
		Options:    fmt.Sprintf("%016x", req.Options),
		Report:     *reportJSON(r, false),
		Encoded:    enc,
	}, nil
}

// KillNode fences one fleet node — the `die node=N` chaos drill. The
// daemon keeps serving; the node's running job is handed off to a
// surviving node after its lease expires.
func (d *Dispatcher) KillNode(node int) error {
	return d.sched.KillNode(node)
}

// Recover re-enqueues the journal's pending jobs, rebuilding each from
// the container path its submit record stored.
func (d *Dispatcher) Recover() (RecoverResponse, error) {
	if d.sched.Journal() == nil {
		return RecoverResponse{}, errors.New("no journal configured (-journal DIR)")
	}
	n := d.sched.Recover(func(rec journal.Record) (service.Job, bool) {
		path := rec.Spec
		if path == "" {
			return service.Job{}, false
		}
		return service.Job{
			Name:         rec.Name,
			Tenant:       rec.Tenant,
			Spec:         path,
			Source:       func() (*apk.App, error) { return apk.Load(path) },
			RunBackDroid: true,
		}, true
	})
	return RecoverResponse{APIVersion: Version, Jobs: n}, nil
}

// Close drains the queue, stops the scheduler and ends every
// subscription after its final event.
func (d *Dispatcher) Close() {
	d.shutdown(false)
}

// Halt is the crash drill: running jobs finish, queued jobs are
// abandoned (journaled ones replay on the next start).
func (d *Dispatcher) Halt() {
	d.shutdown(true)
}

func (d *Dispatcher) shutdown(halt bool) {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		<-d.drained
		return
	}
	d.closed = true
	d.mu.Unlock()
	if halt {
		d.sched.Halt()
	} else {
		d.sched.Close()
	}
	close(d.events)
	<-d.drained
}

// Subscription is one subscriber's view of the event stream: an
// unbounded FIFO the drain loop pushes into, so a slow consumer (an SSE
// client) never backpressures the analysis workers or other consumers.
type Subscription struct {
	d  *Dispatcher
	id int

	mu    sync.Mutex
	cond  *sync.Cond
	queue []service.Event
	ended bool
}

// Subscribe registers a new event subscriber receiving every event from
// this point on. Returns nil after Close/Halt.
func (d *Dispatcher) Subscribe() *Subscription {
	d.mu.Lock()
	defer d.mu.Unlock()
	select {
	case <-d.drained:
		return nil
	default:
	}
	sub := &Subscription{d: d, id: d.nextSub}
	sub.cond = sync.NewCond(&sub.mu)
	d.subs[d.nextSub] = sub
	d.nextSub++
	return sub
}

func (s *Subscription) push(ev service.Event) {
	s.mu.Lock()
	if !s.ended {
		s.queue = append(s.queue, ev)
		s.cond.Signal()
	}
	s.mu.Unlock()
}

func (s *Subscription) close() {
	s.mu.Lock()
	s.ended = true
	s.cond.Broadcast()
	s.mu.Unlock()
}

// Next blocks for the next event; ok=false means the subscription ended
// (Dispatcher closed or Subscription.Close called) and the queue is
// drained.
func (s *Subscription) Next() (service.Event, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.queue) == 0 && !s.ended {
		s.cond.Wait()
	}
	if len(s.queue) == 0 {
		return service.Event{}, false
	}
	ev := s.queue[0]
	s.queue = s.queue[1:]
	return ev, true
}

// Close unregisters the subscription; a pending Next returns after the
// already-queued events.
func (s *Subscription) Close() {
	s.d.mu.Lock()
	delete(s.d.subs, s.id)
	s.d.mu.Unlock()
	s.close()
}
