package service

import (
	"fmt"
	"sort"
	"sync"

	"backdroid/internal/core"
	"backdroid/internal/obs"
	"backdroid/internal/simtime"
)

// This file is the steal protocol (DESIGN.md Sec. 13): a grinding
// victim publishes its progress through the canonical sink list, and
// its own progress poll sheds the back half of its unstarted tail into
// the chunk queue while a node is idle; that node runs the chunk as a
// dispatch of its own, and the parts merge canonically once they cover
// the whole list.

// chunkState tracks one chunk-split job: the victim's progress through
// the canonical sink list, the fence its range shrinks to as chunks are
// stolen, the in-flight stolen ranges and the partial reports awaiting
// the merge. One chunkState belongs to one victim dispatch; its fields
// are guarded by its own mutex (lock order: Scheduler.mu, then
// chunkState.mu, then fleet.mu).
type chunkState struct {
	mu         sync.Mutex
	grain      int  // Config.SinkChunk: steal boundaries round up to it
	total      int  // canonical sink count; -1 until the victim's first poll
	started    int  // the victim has begun sinks [0, started)
	fence      int  // the victim analyzes [0, fence); each steal shrinks it
	victimLive bool // the victim attempt is still running (steals need it)
	steals     int  // chunks stolen off this job
	parts      []chunkPart
	active     map[int]core.ChunkRange // sub -> in-flight stolen/re-pended range
	shared     *core.Shared            // the victim's app and its cold preprocessing
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

// victimDone ends the victim attempt: no further steals off it. It
// reports whether a steal shrank the attempt's range — once the victim
// returned, started == fence, so no new steal can land and the answer
// is final. A nil chunkState (a job that ran unsplit) was never fenced.
func (cs *chunkState) victimDone() bool {
	if cs == nil {
		return false
	}
	cs.mu.Lock()
	defer cs.mu.Unlock()
	cs.victimLive = false
	return cs.steals > 0
}

// popChunk pops the oldest pending chunk range, dropping ranges of jobs
// that settled while they waited. A stolen range is declined by its own
// victim's node while another worker could take it — otherwise, on a
// host where the victim's worker is the only goroutine getting CPU, it
// would drain its own shed chunks and the charged makespan would never
// improve. Caller holds s.mu.
func (s *Scheduler) popChunk(node int) *work {
	for i := 0; i < len(s.chunkQueue); i++ {
		w := s.chunkQueue[i]
		if w.st.settled {
			s.chunkQueue = append(s.chunkQueue[:i], s.chunkQueue[i+1:]...)
			i--
			continue
		}
		if w.steal && node > 0 && w.victim == node && s.workers-s.running > 1 {
			continue
		}
		s.chunkQueue = append(s.chunkQueue[:i], s.chunkQueue[i+1:]...)
		return w
	}
	return nil
}

// stealWindow fences the back half of one job's remaining sink range
// (rounded up to the chunk grain, so steal boundaries land on stable
// chunk edges) and returns it as stealable work, or nil when the job
// has no stealable tail: victim gone, tail under StealMinSinks, or the
// victim not yet past StealAfterUnits of charged lease time. Caller
// holds s.mu.
func (s *Scheduler) stealWindow(st *jobState, cs *chunkState) *work {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if cs.total < 0 || !cs.victimLive {
		return nil
	}
	remaining := cs.fence - cs.started
	if remaining < simtime.StealMinSinks ||
		s.fleet.leaseUnits(st.id, 0) < simtime.StealAfterUnits {
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
	return &work{st: st, cs: cs, from: from, to: to, sub: sub,
		first: first, steal: true, victim: st.node}
}

// shedChunk is the steal trigger, driven from the victim's own progress
// poll: when idle nodes are waiting and no queued chunk is already
// destined for them, fence a chunk off this job's tail into the chunk
// queue and wake the parked workers to take it. The trigger never needs
// an idle worker to win the CPU while the victim grinds — on a
// single-core host the victim never yields mid-run — so the fenced
// range persists in the queue and an idle worker picks it up whenever
// it next runs.
func (s *Scheduler) shedChunk(st *jobState, cs *chunkState) {
	s.mu.Lock()
	defer s.mu.Unlock()
	avail := s.workers - s.running
	if avail <= 0 || len(s.chunkQueue) >= avail || st.settled || st.chunk != cs {
		return
	}
	if w := s.stealWindow(st, cs); w != nil {
		s.chunkQueue = append(s.chunkQueue, w)
		s.cond.Broadcast()
	}
}

// chunkPoll is the victim's SinkProgress hook: called before each sink
// at its canonical position. It publishes the victim's progress (the
// steal trigger's "unstarted tail" input), learns the total on the
// first poll, and stops the victim cleanly at the fence once a steal
// shrank its range. Each poll offers a chunk to any idle node, so the
// steal trigger is re-evaluated exactly as often as progress is made.
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
	}
	return stop
}

// completeChunk records one finished range's partial report — a stolen
// or re-pended chunk, or a fenced victim's [0, fence) — and, once the
// parts cover [0, total), merges them canonically and settles the job:
// remembering the merged report as the next delta base and storing it
// under the same settled key a single-pass run would use (MergeReports
// is pinned bitwise-identical to that run). The engine reports exactly
// one sink per position of its range, so the part ends at from plus its
// sink count. Two ranges completing coverage concurrently both merge;
// finish's at-most-once guard settles exactly one, and the duplicate
// content-addressed store put is a harmless refresh.
func (s *Scheduler) completeChunk(w *work, rep *core.Report) {
	st, cs := w.st, w.cs
	s.mu.Lock()
	settled := st.settled
	s.mu.Unlock()
	if settled {
		return
	}
	cs.mu.Lock()
	delete(cs.active, w.sub)
	cs.parts = append(cs.parts, chunkPart{from: w.from, to: w.from + len(rep.Sinks), rep: rep})
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
