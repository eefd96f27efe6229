package service

import (
	"errors"
	"fmt"

	"backdroid/internal/apk"
	"backdroid/internal/core"
	"backdroid/internal/obs"
	"backdroid/internal/service/journal"
	"backdroid/internal/simtime"
	"backdroid/internal/wholeapp"
)

// This file is the one dispatch path. BackDroid analyzes each sink on
// its own, so any canonical sink range [from, to) of a job is a complete
// unit of engine work; a whole job is just the range [0, total) on sub
// 0. runWork executes every dispatch — queued jobs, stolen chunks and
// re-pended ranges alike — with one lease, heartbeat, trace and
// settle-or-merge bookkeeping.

// work is the unit of dispatch. A queued job is {st, sub: 0} with no
// range: the whole job, whose chunk state (cs) is registered only once
// it runs as a steal-eligible victim. A stolen chunk (steal) or a range
// re-pended after its holder's lease expired carries its range
// [from, to) and the job's chunk state. sub keys the lease: 0 is the
// job itself, from+1 otherwise — nonzero, unique per distinct range of
// one job.
type work struct {
	st     *jobState
	cs     *chunkState
	from   int
	to     int
	sub    int
	first  bool // the job's first steal (victim counter)
	steal  bool // live steal: journal KindSteal and charge simtime.StealUnits
	victim int  // the victim's node; it declines its own shed chunks
}

// prevRun is one remembered prior analysis of a job name.
type prevRun struct {
	fp     uint64
	report *core.Report
}

func prevKey(tenant, name string) string { return tenant + "\x00" + name }

// runWork executes one dispatch on a node. Every dispatch is a
// first-class lease holder: it takes its own lease keyed by its sub,
// streams its own heartbeats and has its own abandon path, so a dying
// node loses only its own range. A completed range whose report is a
// part feeds the merge; anything else settles the job. A panic anywhere
// in the attempt — the job's Source, the engine, a job-supplied hook —
// is recovered here and becomes the attempt's error, so one bad job
// fails alone instead of taking the process down.
func (s *Scheduler) runWork(w *work, node int) {
	st, whole := w.st, w.sub == 0
	s.mu.Lock()
	if whole && st.canceled {
		s.mu.Unlock()
		s.finish(st, nil, ErrCanceled)
		return
	}
	if !whole && st.settled {
		s.mu.Unlock()
		return
	}
	if !w.steal {
		// A job dispatch, or a re-pended range retrying a lost one: a new
		// attempt, so its lease is distinguishable from the lost one and
		// the backoff escalates. A stolen chunk rides the victim's attempt.
		st.attempt++
	}
	st.started = true
	st.node = node
	attempt, seq := st.attempt, st.dispatchSeq
	base := traceBaseLocked(st, w.sub)
	if w.steal {
		// A stolen chunk's track opens with the flat steal charge; the
		// engine's work starts after it.
		base = simtime.StealUnits
		setTraceBaseLocked(st, w.sub, base)
	}
	s.mu.Unlock()

	if s.fleet != nil {
		s.fleet.grant(st.id, w.sub, node, attempt)
	}
	switch {
	case w.steal:
		// The steal record carries the thief node and the chunk's start
		// position (in Attempt — a chunk steal has no dispatch attempt of
		// its own).
		s.journalAppend(journal.Record{
			Kind: journal.KindSteal, Job: int64(st.id),
			Node: int64(node), Attempt: int64(w.from),
		})
		s.fleet.chargeSteal(w.to-w.from, w.first)
		if tr := s.cfg.Trace; tr != nil {
			tr.Add(obs.Span{Job: int64(st.id), Sub: w.sub, Name: "steal-claim",
				Cat: "sched", Start: 0, Dur: simtime.StealUnits, Node: node,
				Args: []obs.Arg{
					{Key: "from", Value: fmt.Sprint(w.from)},
					{Key: "to", Value: fmt.Sprint(w.to)}}})
		}
	case s.fleet != nil:
		s.journalAppend(journal.Record{
			Kind: journal.KindLease, Job: int64(st.id),
			Node: int64(node), Attempt: int64(attempt),
		})
	}
	if whole {
		if tr := s.cfg.Trace; tr != nil {
			tr.Add(obs.Span{Job: int64(st.id), Sub: 0, Name: "dispatch", Cat: "sched",
				Start: base, Dur: obs.Instant, Node: node,
				Args: []obs.Arg{{Key: "attempt", Value: fmt.Sprint(attempt)}}})
		}
		if attempt == 1 {
			s.journalAppend(journal.Record{Kind: journal.KindStart, Job: int64(st.id)})
		}
		s.emit(Event{Kind: EventStarted, Job: st.id, Name: st.job.Name, Node: node, Attempt: attempt, Seq: seq})
	}
	res, part, err := func() (res *JobResult, part bool, err error) {
		defer func() {
			if p := recover(); p != nil {
				s.panics.Add(1)
				err = fmt.Errorf("service: job %q panicked: %v", st.job.Name, p)
			}
		}()
		return s.analyze(w, node, attempt, base)
	}()
	if s.fleet != nil {
		if s.fleet.nodeDead(node) && errors.Is(err, simtime.ErrCanceled) && !st.cancelFlag.Load() {
			// The node died under this attempt (the engine aborted at the
			// checkpoint that observed the fencing, not by user cancel): no
			// terminal — abandon charges the detection latency, expires the
			// lease and hands the lost range to a surviving node.
			s.fleet.abandon(st.id, w.sub, node, attempt)
			return
		}
		s.fleet.release(st.id, w.sub, node, attempt)
	}
	if part && err == nil {
		s.completeChunk(w, res.BackDroid)
		return
	}
	s.finish(st, res, err)
}

// analyze materializes the dispatch's app and runs it. A sink range is
// one engine run restricted to that range, on the victim's app and
// against its fingerprint. A whole job adds on top: the settled fast
// path, the delta base, the steal-eligibility gate, settling or
// remembering an unfenced report, and the whole-app and call-graph legs.
// Every dispatch builds its own engines — no analysis state crosses
// jobs; the only objects shared across jobs are the content-addressed
// bundle stores, which are concurrency-safe and append-only, and the
// ranges of one split job share its core.Shared handle. node/attempt
// identify the fleet dispatch (0/1 without a fleet); they are passed as
// values because a handed-off job's jobState fields may be rewritten by
// the re-dispatch while the abandoned attempt is still in here. part reports
// that res.BackDroid is a partial report for the merge in w.cs — a chunk,
// or a victim a steal fenced — rather than the job's result.
func (s *Scheduler) analyze(w *work, node, attempt int, base int64) (res *JobResult, part bool, err error) {
	st, job, store := w.st, w.st.job, s.cfg.Store
	if cs := w.cs; cs != nil {
		// A sink range runs on the victim's app, not a fresh Source.
		o := s.engineOptions(w, cs.name, node, attempt, base)
		rep, err := runEngine(w, cs.name, cs.shared.App, o, store, cs.fp)
		if err != nil {
			return nil, false, err
		}
		return &JobResult{ID: st.id, Name: cs.name, BackDroid: rep}, true, nil
	}
	app, err := job.Source()
	if err != nil {
		return nil, false, err
	}
	res = &JobResult{ID: st.id, Name: job.Name}
	if res.Name == "" {
		res.Name = app.Name
	}

	if job.RunBackDroid {
		o := s.engineOptions(w, res.Name, node, attempt, base)
		var fp uint64
		if store != nil || s.cfg.Reports != nil {
			fp = app.Fingerprint()
		}
		// Settled-result fast path. The key hashes only verdict-relevant
		// options — the delta base, bundle cache and observer wiring are
		// all fingerprint-neutral — so a delta run, a warm run and a cold
		// run of one (app, options) pair share one address, and a hit
		// skips the engine entirely.
		var settledKey ReportKey
		if s.cfg.Reports != nil {
			settledKey = ReportKey{App: fp, Options: OptionsFingerprint(&o)}
			if stored, ok := s.cfg.Reports.Get(settledKey); ok {
				rep, err := s.serveSettled(st, res.Name, stored, o.TimeoutMinutes)
				if err != nil {
					return nil, false, err
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
			if store != nil {
				if prev, ok := s.lastRun(st.tenant, res.Name); ok && prev.fp != fp {
					// Same job name, different content: an app update. When
					// the prior version's bundle is still cached, hand it to
					// the engine as the delta base; the engine itself falls
					// back to a full run if the base proves unusable.
					if data, ok := store.GetBundle(prev.fp); ok {
						o.DeltaFrom = &core.DeltaBase{Bundle: data, Report: prev.report}
					}
				}
			}
			if s.fleet != nil && s.cfg.SinkChunk > 0 && o.TimeoutMinutes == 0 &&
				o.DeltaFrom == nil && !job.RunWholeApp && !job.RunCallGraph {
				// Steal-eligible: register the chunk fan-out state and let
				// the engine report per-sink progress. Delta runs and timed
				// runs stay unsplit (a chunk must not depend on a delta base
				// the other chunks lack, and the simulated timeout is a
				// whole-run budget); multi-analyzer jobs settle a composite
				// result the merge path does not carry. Every range of the
				// job runs on this app and shares its preprocessing.
				cs := &chunkState{
					shared:     &core.Shared{App: app},
					grain:      s.cfg.SinkChunk,
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
				w.cs = cs
				o.Shared = cs.shared
				o.SinkProgress = func(next, total int) bool {
					return s.chunkPoll(st, cs, next, total)
				}
			}
			res.BackDroid, err = runEngine(w, res.Name, app, o, store, fp)
			fenced := w.cs.victimDone()
			if err != nil {
				return nil, false, err
			}
			if fenced {
				// Chunks were stolen: the engine stopped at the fence and
				// the report is the partial [0, fence) — only the merged
				// union may seed the delta path or settle the store.
				return res, true, nil
			}
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
	if job.RunWholeApp {
		res.WholeApp, err = runWholeApp(app, wholeapp.FullAnalysis)
		if err != nil {
			return nil, false, fmt.Errorf("service: wholeapp on %s: %w", res.Name, err)
		}
	}
	if job.RunCallGraph {
		res.CallGraph, err = runWholeApp(app, wholeapp.CallGraphOnly)
		if err != nil {
			return nil, false, fmt.Errorf("service: callgraph on %s: %w", res.Name, err)
		}
	}
	return res, false, nil
}

// engineOptions builds one dispatch's engine options: the job's own (or
// the scheduler default) plus the wiring every dispatch shares — the
// meter checkpoint (trace counter sample, fleet heartbeat, cooperative
// cancellation), trace hooks re-anchored on the track origin base,
// Config.Store as the bundle cache and the sink-event observer. name
// labels the job's events and heartbeats. A sink range is restricted to
// [from, to), never runs the delta path or the steal poll, and shares
// the job's preprocessing handle.
func (s *Scheduler) engineOptions(w *work, name string, node, attempt int, base int64) core.Options {
	st, sub := w.st, w.sub
	id := st.id
	o := s.jobOptions(st.job)
	// One checkpoint hook, in a fixed order. The trace counter sample
	// comes first, so the aborting checkpoint is still recorded; in
	// fleet mode it doubles as the lease-renew/heartbeat event, so one
	// sample per renewal is exactly the renewal timeline. The fleet tick
	// then advances the node odometer and fleet clock by the charged
	// delta, meters the lease, consults the fault plan and reports the
	// node's own death. Scheduler.Cancel's flag and a job-supplied
	// Checkpoint follow; any of them stops the run.
	tr, fl, flag, user := s.cfg.Trace, s.fleet, &st.cancelFlag, o.Checkpoint
	o.Checkpoint = func(units, delta int64) bool {
		if tr != nil {
			tr.AddCounter(obs.CounterSample{Job: int64(id), Sub: sub, Node: node,
				TS: base + units, Value: base + units})
		}
		if fl != nil && fl.tick(node, id, sub, name, attempt, delta) {
			return true
		}
		return flag.Load() || (user != nil && user(units, delta))
	}
	if tr != nil {
		// Engine phases land on the dispatch's track, anchored at the
		// charged units the engine itself reports plus the track origin a
		// handoff or steal may have advanced.
		o.PhaseSpan = func(phase string, sink int, start, end int64) {
			sp := obs.Span{Job: int64(id), Sub: sub, Name: phase, Cat: "engine",
				Start: base + start, Dur: end - start, Node: node}
			if sink >= 0 {
				sp.Args = []obs.Arg{{Key: "sink", Value: fmt.Sprint(sink)}}
			}
			tr.Add(sp)
		}
	}
	// A nil *BundleStore in the o.Bundles interface would not be a nil
	// interface, so a storeless job leaves the field unset.
	if s.cfg.Store != nil {
		o.Bundles = s.cfg.Store
	}
	if s.cfg.Events != nil {
		pos, traced := w.from, s.cfg.Trace != nil
		o.SinkObserver = func(sr *core.SinkReport) {
			ev := Event{Kind: EventSink, Job: id, Name: name, Sink: sr}
			if traced {
				// Sinks stream in canonical order, so the running position
				// names the backslice span that produced this report.
				ev.Span = fmt.Sprintf("%d/%d/%d", id, sub, pos)
			}
			pos++
			s.emit(ev)
		}
	}
	if sub != 0 {
		o.ChunkRange = &core.ChunkRange{From: w.from, To: w.to}
		o.DeltaFrom = nil
		o.SinkProgress = nil
		o.Shared = w.cs.shared
	}
	return o
}

// runEngine runs the BackDroid engine once. When the store lacks fp's
// bundle it holds the fingerprint's build lock across the run — the
// single-build guarantee: concurrent jobs for one fingerprint serialize
// here, so the first performs the only cold build (publishing the bundle
// during the run) and the rest run fully warm. The release is deferred,
// so a panicking run can never leave the fingerprint locked for every
// later job. A cancel passes through unwrapped; other errors name the
// job, and the range for a chunk.
func runEngine(w *work, name string, app *apk.App, o core.Options, store *BundleStore, fp uint64) (*core.Report, error) {
	if store != nil && !store.Contains(fp) {
		defer store.LockFingerprint(fp)()
	}
	e, err := core.New(app, o)
	var rep *core.Report
	if err == nil {
		rep, err = e.Analyze()
	}
	switch {
	case err == nil:
		return rep, nil
	case errors.Is(err, simtime.ErrCanceled):
		return nil, err
	case w.sub == 0:
		return nil, fmt.Errorf("service: backdroid on %s: %w", name, err)
	}
	return nil, fmt.Errorf("service: backdroid chunk [%d,%d) on %s: %w", w.from, w.to, name, err)
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
//
// A base is only of use while Config.Store holds its bundle (the delta
// path starts from store.GetBundle), so one whose bundle the store does
// not hold replaces nothing and is forgotten, and every base whose
// bundle the store has since evicted or dropped goes with it. The map,
// and so each sweep of it, is bounded by the store, not by the job names
// ever seen. The base is a copy without the per-sink SSGs (deltaBase),
// and the caller's report is left as it is.
func (s *Scheduler) rememberRun(tenant, name string, fp uint64, report *core.Report) {
	store := s.cfg.Store
	key := prevKey(tenant, name)
	s.prevMu.Lock()
	defer s.prevMu.Unlock()
	if store.Contains(fp) {
		s.prev[key] = prevRun{fp: fp, report: deltaBase(report)}
	} else {
		delete(s.prev, key)
	}
	for k, p := range s.prev {
		if !store.Contains(p.fp) {
			delete(s.prev, k)
		}
	}
}

// deltaBase copies what a later delta run reads of a report (planDeltaReuse:
// verdicts, values, entries, footprints and the registration surface),
// leaving out every sink's SSG, which the delta path never reads and
// which holds most of a report's memory. A sink the delta run reuses
// from this base therefore carries no graph.
func deltaBase(r *core.Report) *core.Report {
	base := *r
	base.Sinks = make([]*core.SinkReport, len(r.Sinks))
	for i, sr := range r.Sinks {
		c := *sr
		c.SSG = nil
		base.Sinks[i] = &c
	}
	return &base
}

// deltaBases returns how many delta bases the scheduler remembers.
func (s *Scheduler) deltaBases() int {
	s.prevMu.Lock()
	defer s.prevMu.Unlock()
	return len(s.prev)
}

// jobOptions resolves the engine options of a job: its own, else the
// scheduler default, else core.DefaultOptions — always a copy, never a
// shared pointer.
func (s *Scheduler) jobOptions(job Job) core.Options {
	if job.Options != nil {
		return *job.Options
	}
	if s.cfg.Options != nil {
		return *s.cfg.Options
	}
	return core.DefaultOptions()
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
