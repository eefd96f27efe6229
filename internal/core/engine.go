// Package core implements the BackDroid engine: targeted inter-procedural
// analysis driven by on-the-fly bytecode search (paper Secs. III-V).
//
// Instead of building a whole-app call graph, the engine locates sink API
// calls by searching the disassembled bytecode text and then backtracks
// from each sink toward the app's entry points, locating callers one step
// at a time with a set of search mechanisms: the basic signature search
// (Sec. IV-A), the advanced search with forward object taint analysis
// (Sec. IV-B), the recursive static-initializer search (Sec. IV-C), the
// two-time ICC search (Sec. IV-D) and the lifecycle handler search
// (Sec. IV-E). During backtracking it builds one self-contained slicing
// graph (SSG) per sink and finally runs forward constant and points-to
// propagation over the SSG to recover the sink parameter values.
package core

import (
	"fmt"
	"time"

	"backdroid/internal/android"
	"backdroid/internal/apk"
	"backdroid/internal/bcsearch"
	"backdroid/internal/cha"
	"backdroid/internal/dex"
	"backdroid/internal/dexdump"
	"backdroid/internal/ir"
	"backdroid/internal/simtime"
	"backdroid/internal/ssg"
	"backdroid/internal/vuln"
)

// Options configures the engine. The zero value is NOT usable; call
// DefaultOptions.
type Options struct {
	// Sinks are the sink APIs to track. Defaults to android.DefaultSinks.
	Sinks []android.Sink

	// EnableSearchCache caches search commands and results (Sec. IV-F).
	EnableSearchCache bool

	// SearchBackend selects the bytecode search implementation. The zero
	// value (BackendIndexed) resolves each search command from a one-pass
	// inverted index over the dump text; BackendLinear is the
	// paper-faithful full-text scan, kept for ablations.
	SearchBackend bcsearch.BackendKind

	// IndexCacheDir, when non-empty, enables the persistent bundle cache:
	// the search index and the disassembled dump text are serialized to
	// <dir>/<app>.bdx after the first analysis, and re-analyses of the
	// same app load both — a warm engine run performs zero disassembly
	// and zero tokenization, charging the cheap cache-load rates instead.
	// Corrupt, stale or version-bumped cache files are detected and
	// rebuilt silently.
	IndexCacheDir string

	// Bundles is the in-memory content-addressed bundle seam of the batch
	// service: before touching the on-disk cache the engine asks it for an
	// encoded bundle keyed by the app fingerprint. A hit makes the run
	// fully warm — zero disassembly, zero index build, zero disk I/O —
	// charged at the cheap simtime.ChargeBundleStoreLoad rate; a miss
	// falls through to the disk cache (if configured) or a cold build,
	// after which the freshly encoded bundle is handed back to the store.
	// Nil disables the store. service.BundleStore is the production
	// implementation.
	Bundles BundleCache

	// EnableSinkCache caches per-method reachability so repeated sink
	// calls in the same unreachable method are skipped (Sec. IV-F).
	EnableSinkCache bool

	// EnableLoopDetection detects the four dead method loop kinds
	// (Sec. IV-F). When disabled, only MaxDepth bounds the traversals.
	EnableLoopDetection bool

	// ResolveSinkSubclasses extends the initial sink search with class
	// hierarchy awareness, catching sink APIs invoked through app
	// subclasses of system classes. This is the paper's planned fix for
	// its two false negatives (Sec. VI-C).
	ResolveSinkSubclasses bool

	// AnalyzeAllContained disables the static-field bytecode search
	// optimization of Sec. V-A: with it set, the slicer descends into
	// every contained method while static fields are tainted, instead of
	// only the methods the field-signature search matched. Exists for the
	// ablation benchmark.
	AnalyzeAllContained bool

	// MaxDepth bounds inter-procedural backtracking and forward taint
	// chains.
	MaxDepth int

	// TimeoutMinutes aborts the analysis after this much simulated time;
	// 0 disables the budget (BackDroid needs no timeout in the paper).
	TimeoutMinutes float64

	// Checkpoint, when non-nil, is how the batch control plane watches
	// a run: the engine's meter calls it every
	// simtime.CancelCheckpointUnits of charged work — which covers every
	// constprop forward pass and every bcsearch lookup, since both charge
	// the meter — with the cumulative units and the units charged since
	// the previous checkpoint (simtime.Meter.SetCheckpoint). The
	// scheduler samples its trace counter, ticks the fleet heartbeat and
	// polls the job's cancel flag from it. Returning true aborts the
	// analysis with simtime.ErrCanceled at that checkpoint. Unlike a
	// timeout, a cancellation is an error out of Analyze, never a
	// TimedOut report: the caller owns the terminal event. The hook runs
	// on the analysis goroutine, must be cheap and must never charge the
	// meter.
	Checkpoint func(units, delta int64) bool

	// SinkObserver, when non-nil, receives every SinkReport as soon as its
	// verdict is final, i.e. right after the sink call's forward pass. The
	// callback runs synchronously on the analysis goroutine, in report
	// order; the batch service streams these as events while the job is
	// still running.
	SinkObserver func(*SinkReport)

	// DeltaFrom, when non-nil, supplies the prior version of the app for
	// incremental re-analysis (DESIGN.md Sec. 10): the engine diffs the
	// two class manifests and carries over every settled sink verdict
	// whose recorded footprint provably cannot observe the update,
	// charging the cheap ChargeManifestDiff/ChargeDeltaReuse rates for the
	// unchanged mass. The report is identical to a full re-analysis; only
	// the charged cost shrinks. Ignored (silent full run) when the base
	// is unusable — timed out, undecodable manifest.
	DeltaFrom *DeltaBase

	// ChunkRange, when non-nil, restricts the run to the canonical
	// positions [From, To) of the located sink-call list — the
	// resumable per-sink entry point of the fleet's work stealing (see
	// chunk.go). The chunk preprocesses the app and locates its sink
	// calls like any other run (Shared may spare it the work, never the
	// charge) and emits a partial Report covering exactly its window;
	// MergeReports unions the parts back into the canonical single-pass
	// report. A chunked run ignores DeltaFrom: a partial report must
	// not depend on a delta base the other chunks lack.
	ChunkRange *ChunkRange

	// PhaseSpan, when non-nil, receives one call per completed engine
	// phase with the phase's charged-unit bounds [start, end) on this
	// engine's meter: the preprocessing phases (disassembly or the warm
	// bundle/dump load, the delta manifest diff), locate-sinks (which
	// holds the index build or load of the first search) and, per
	// analyzed sink, the backward slice and the forward constprop pass,
	// with sink carrying the canonical sink position (-1 for app-level
	// phases). The callback runs synchronously on the analysis goroutine
	// after the phase's last charge; it must never
	// charge the meter itself, so enabling it cannot move a single
	// checkpoint — tracing is observationally free in simulated time.
	// A phase aborted by timeout or cancellation emits no span.
	PhaseSpan func(phase string, sink int, start, end int64)

	// SinkProgress, when non-nil, is polled immediately before each
	// sink call is analyzed, with the sink's position in the canonical
	// list and the list's total length. Returning true stops the run
	// before that sink — its position was fenced away by a steal — and
	// Analyze returns the partial report of the sinks already completed,
	// not an error. The fleet scheduler's victim hook also uses the first
	// poll to learn the job's total sink count.
	SinkProgress func(next, total int) bool

	// Shared, when non-nil, is the job's in-memory preprocessing handle
	// (see Shared): a run over Shared.App that loads no bundle takes the
	// dump and index an earlier run of the job left there instead of
	// rendering and tokenizing the app again, and leaves its own for
	// the next. The charged units and the report are a cold run's.
	Shared *Shared
}

// DefaultOptions returns the configuration used in the paper's evaluation:
// all engineering enhancements on, no timeout, paper sinks.
func DefaultOptions() Options {
	return Options{
		Sinks:               android.DefaultSinks(),
		SearchBackend:       bcsearch.BackendIndexed,
		EnableSearchCache:   true,
		EnableSinkCache:     true,
		EnableLoopDetection: true,
		MaxDepth:            25,
	}
}

// BundleCache is the in-memory content-addressed bundle store seam:
// encoded .bdx bundle bytes keyed by app fingerprint (see
// dexdump.AppFingerprint). GetBundle returns the entry and marks it
// recently used; PutBundle inserts it (a later Put of the same
// fingerprint is a refresh — entries are content-addressed, so the bytes
// are identical); DropBundle removes an entry that failed validation, so
// the fresh bundle the engine publishes can replace it. Implementations
// must be safe for concurrent use: the batch service analyzes many apps
// at once against one store.
type BundleCache interface {
	GetBundle(fingerprint uint64) ([]byte, bool)
	PutBundle(fingerprint uint64, data []byte)
	DropBundle(fingerprint uint64)
}

// SinkCall is one located sink API call site.
type SinkCall struct {
	Sink      android.Sink
	Caller    dex.MethodRef // method containing the sink call
	UnitIndex int           // call-site unit in the caller's IR body
	Line      int           // dump text line of the call
}

// String renders the sink call site.
func (s SinkCall) String() string {
	return fmt.Sprintf("%s @ %s#%d", s.Sink.Method.SootSignature(), s.Caller.SootSignature(), s.UnitIndex)
}

// SinkReport is the per-sink analysis outcome.
type SinkReport struct {
	Call      SinkCall
	Reachable bool            // backtracking reached a valid entry point
	Cached    bool            // answered from the sink reachability cache
	Entries   []dex.MethodRef // entry points reached
	Values    []string        // dataflow representations of the tracked parameter
	Insecure  bool            // vulnerability rule verdict
	SSG       *ssg.Graph

	// Reused marks a verdict carried over from the prior version by the
	// delta path (Options.DeltaFrom); the detection outcome is identical
	// to what a fresh analysis would compute.
	Reused bool
	// Footprint records what this sink's analysis observed; a later
	// delta run consults it to decide whether the verdict survives an
	// update. Nil on carried-over base reports that never recorded one.
	Footprint *Footprint
}

// LoopKind names the four dead-loop types of Sec. IV-F.
type LoopKind int

// Loop kinds.
const (
	CrossBackward LoopKind = iota + 1
	InnerBackward
	CrossForward
	InnerForward
)

// String names the loop kind as the paper does.
func (k LoopKind) String() string {
	switch k {
	case CrossBackward:
		return "CrossBackward"
	case InnerBackward:
		return "InnerBackward"
	case CrossForward:
		return "CrossForward"
	case InnerForward:
		return "InnerForward"
	}
	return "UnknownLoop"
}

// Stats aggregates the engineering measurements of Sec. IV-F plus cost
// accounting.
type Stats struct {
	Search          bcsearch.Stats
	SinkCallsTotal  int
	SinkCallsCached int
	Loops           map[LoopKind]int
	MethodsAnalyzed int
	WorkUnits       int64
	SimMinutes      float64
	WallTime        time.Duration

	// Warm-start dump cache accounting. DumpCacheHits / DumpCacheMisses
	// count bundle dump-section probes (at most one each per engine; both
	// zero when no bundle store or cache directory is configured). On a
	// hit the engine performed zero disassembly and charged DumpCacheUnits
	// at the cheap simtime.ChargeDumpCacheLoad rate; on a miss (or without
	// a bundle)
	// DumpLinesDisassembled records the lines rendered and charged at the
	// full disassembly rate.
	DumpCacheHits         int
	DumpCacheMisses       int
	DumpCacheUnits        int64
	DumpLinesDisassembled int64

	// In-memory bundle store accounting (Options.Bundles). At most one
	// probe per engine; both zero when no store is configured. A hit
	// means the whole warm start — dump and index — came out of process
	// memory with zero disk I/O.
	BundleStoreHits   int
	BundleStoreMisses int

	// ForwardMemoHits is always 0: the forward pass has no memo. The
	// field stays because the API's memo field, the bench trace probe
	// and committed BENCH records read it.
	ForwardMemoHits int64

	// SettledLookups counts reports served whole from the settled-result
	// tier (service.ReportStore): the job charged one O(1) lookup and ran
	// no engine at all — zero disassembly, zero index builds, zero
	// analysis. Set by the batch service, never by the engine itself; a
	// report with SettledLookups > 0 carries the charged lookup cost in
	// WorkUnits and the settled verdicts in Sinks.
	SettledLookups int

	// CancelPolls counts the checkpoints the meter hit
	// (Options.Checkpoint); zero when no hook is installed.
	CancelPolls int64

	// Delta accounting (Options.DeltaFrom); all zero on non-delta runs.
	// SinksReused counts verdicts carried over from the base report,
	// SinksRerun the located sinks that went through the full pipeline on
	// a delta run; DeltaReusedLines is the unchanged footprint mass
	// charged at the cheap delta-reuse rate.
	SinksReused      int
	SinksRerun       int
	DeltaReusedLines int64
}

// DeltaRun reports whether the run took the delta path and had located
// sinks to carry over or re-run, or unchanged footprint mass to reuse —
// the runs whose delta counters are worth printing.
func (s Stats) DeltaRun() bool {
	return s.SinksReused+s.SinksRerun > 0 || s.DeltaReusedLines > 0
}

// SinkCacheRate returns the fraction of sink calls answered from the
// reachability cache.
func (s Stats) SinkCacheRate() float64 {
	if s.SinkCallsTotal == 0 {
		return 0
	}
	return float64(s.SinkCallsCached) / float64(s.SinkCallsTotal)
}

// LoopsDetected reports whether at least one dead loop was detected.
func (s Stats) LoopsDetected() bool {
	for _, n := range s.Loops {
		if n > 0 {
			return true
		}
	}
	return false
}

// Report is the full analysis result of one app.
type Report struct {
	App      string
	Sinks    []*SinkReport
	Stats    Stats
	TimedOut bool

	// Registered is the manifest registration surface the analysis ran
	// under (see registeredComponents); a delta run compares it against
	// the new version's to prove entry-point decisions still hold.
	Registered []string
}

// InsecureSinks returns the reachable sinks judged insecure.
func (r *Report) InsecureSinks() []*SinkReport {
	var out []*SinkReport
	for _, s := range r.Sinks {
		if s.Reachable && s.Insecure {
			out = append(out, s)
		}
	}
	return out
}

// reachState caches per-method reachability (the sink API call caching of
// Sec. IV-F). frag is the footprint fragment of the computation that
// produced the entry, replayed into the active frames on every hit.
type reachState struct {
	reachable bool
	entries   []dex.MethodRef
	frag      *fpFrame
}

// Engine analyzes one app.
type Engine struct {
	app    *apk.App
	opts   Options
	dexf   *dex.File
	prog   *ir.Program
	dump   *dexdump.Text
	search *bcsearch.Engine
	hier   *cha.Hierarchy
	meter  *simtime.Meter

	reachCache  map[ir.MethodID]*reachState
	callerCache map[ir.MethodID][]callerSite
	entryCache  map[ir.MethodID]bool
	analyzed    map[ir.MethodID]bool
	loops       map[LoopKind]int
	sinkTotal   int
	sinkCached  int
	preTimedOut bool

	// Engine-wide static-field writer cache, shared across all slicers
	// (the writer set is a pure function of the dump).
	writerCache map[dex.FieldRef]map[ir.MethodID]bool

	// Warm-start bundle (bundle.go) and the dump accounting (see Stats).
	bundle         *bundle
	dumpCacheUnits int64
	dumpLinesCold  int64

	// Delta analysis state (Options.DeltaFrom; see delta.go). rec is the
	// footprint recorder — every run records, so any run can later serve
	// as a delta base; callerFrag/writerFrag hold the footprint fragments
	// of the caller and static-writer caches.
	rec              *fpRecorder
	callerFrag       map[ir.MethodID]*fpFrame
	writerFrag       map[dex.FieldRef]*fpFrame
	deltaOldReport   *Report
	deltaOldMan      *dexdump.Manifest
	deltaNewMan      *dexdump.Manifest
	deltaDiff        *dexdump.ManifestDiff
	deltaDumpLines   int // changed+added span lines, valid when deltaDiff != nil
	sinksReused      int
	sinksRerun       int
	deltaReusedLines int64
}

// New preprocesses the app (paper Sec. III step 1): merges multidex,
// obtains the bytecode plaintext and builds the search and IR
// infrastructure. With a bundle available (from Bundles or IndexCacheDir,
// probed in that order — see bundle.go) it is probed first: a bundle
// that reads whole with a valid dump makes this a warm start — zero
// disassembly, charged at the cheap ChargeBundleStoreLoad or
// ChargeDumpCacheLoad rate — while any damaged or absent bundle falls
// back to disassembly transparently and self-heals the bundle.
func New(app *apk.App, opts Options) (*Engine, error) {
	if len(opts.Sinks) == 0 {
		opts.Sinks = android.DefaultSinks()
	}
	if opts.MaxDepth <= 0 {
		opts.MaxDepth = 25
	}
	meter := simtime.NewMeter()
	if opts.TimeoutMinutes > 0 {
		meter.SetBudget(simtime.MinutesToUnits(opts.TimeoutMinutes))
	}
	if opts.Checkpoint != nil {
		meter.SetCheckpoint(opts.Checkpoint)
	}

	// Warm-start probes run before any merge or disassembly work. A warm
	// start never renders the dex, and the analysis translates only the
	// few methods a sink flow reaches, so it loads the tables and leaves
	// each body to decode on first use; a cold start renders every body
	// and decodes them all in one pass.
	warm := openBundle(app, opts)

	load := app.MergedDex
	if warm.dump != nil {
		load = app.MergedTables
	}
	merged, err := load()
	if err != nil {
		return nil, fmt.Errorf("core: preprocessing %s: %w", app.Name, err)
	}

	e := &Engine{
		app:         app,
		opts:        opts,
		dexf:        merged,
		prog:        ir.NewProgram(merged),
		hier:        cha.New(merged),
		meter:       meter,
		reachCache:  make(map[ir.MethodID]*reachState),
		callerCache: make(map[ir.MethodID][]callerSite),
		entryCache:  make(map[ir.MethodID]bool),
		analyzed:    make(map[ir.MethodID]bool),
		loops:       make(map[LoopKind]int),
		writerCache: make(map[dex.FieldRef]map[ir.MethodID]bool),
		bundle:      warm,
		// Footprint recording (delta.go): every run records, per sink,
		// the classes and search commands its analysis consulted, so it
		// can later serve as a delta base.
		rec:        &fpRecorder{},
		callerFrag: make(map[ir.MethodID]*fpFrame),
		writerFrag: make(map[dex.FieldRef]*fpFrame),
	}
	e.prog.SetObserver(func(ref dex.MethodRef) { e.rec.class(ref.Class) })
	if d := opts.DeltaFrom; d != nil && opts.ChunkRange == nil && d.Report != nil && !d.Report.TimedOut {
		// A base bundle that does not read whole (other codec version,
		// any damage) or lacks a decodable manifest silently disables the
		// delta path; the run is then an ordinary full analysis.
		if base, err := dexdump.ReadBundle(d.Bundle); err == nil {
			if om, err := base.Manifest(); err == nil {
				e.deltaOldMan = om
				e.deltaOldReport = d.Report
			}
		}
	}

	var preErr error
	coldLines := 0
	dump := warm.dump
	if dump != nil {
		// Warm path: the cached dump replaces disassembly entirely;
		// reading it back is charged at the flat cache-load rate — the
		// cheaper in-memory rate when the bundle came from the store.
		before := meter.Units()
		name := "dump-load"
		if warm.fromStore {
			name = "bundle-load"
			preErr = meter.ChargeBundleStoreLoad(dump.LineCount())
		} else {
			preErr = meter.ChargeDumpCacheLoad(dump.LineCount())
		}
		e.dumpCacheUnits = meter.Units() - before
		if preErr == nil {
			e.phaseSpan(name, -1, before)
		}
	} else {
		if dump, err = opts.Shared.text(app, merged); err != nil {
			return nil, fmt.Errorf("core: preprocessing %s: %w", app.Name, err)
		}
		coldLines = dump.LineCount()
	}
	e.dump = dump

	if e.deltaOldMan != nil {
		// The manifest diff is the delta run's first charged step: one
		// fingerprint-map probe per class of both versions' union.
		e.deltaNewMan = dexdump.BuildManifest(dump)
		e.deltaDiff = dexdump.DiffManifests(e.deltaOldMan, e.deltaNewMan)
		e.deltaDumpLines = e.deltaNewMan.LinesOf(e.deltaDiff.Touched())
		if preErr == nil {
			b := meter.Units()
			preErr = meter.ChargeManifestDiff(e.deltaDiff.TotalClasses())
			if preErr == nil {
				e.phaseSpan("delta-diff", -1, b)
			}
		}
	}
	if coldLines > 0 && preErr == nil {
		if e.deltaDiff != nil {
			// Delta disassembly model: only the changed and added spans
			// are rendered at the full line rate; the unchanged mass is
			// carried over from the base dump at the cheap reuse rate.
			// (The substrate still disassembled everything above, so the
			// dump is bitwise identical to a cold run's — the charge is
			// what models the delta.)
			e.dumpLinesCold = int64(e.deltaDumpLines)
			b := meter.Units()
			preErr = meter.ChargeLines(e.deltaDumpLines)
			if preErr == nil {
				e.phaseSpan("disassembly", -1, b)
				b = meter.Units()
				preErr = meter.ChargeDeltaReuse(coldLines - e.deltaDumpLines)
				if preErr == nil {
					e.phaseSpan("delta-reuse", -1, b)
				}
			}
		} else {
			// Disassembly cost: dexdump is a linear pass over the
			// bytecode. A budget exhausted this early surfaces as a
			// timed-out report from Analyze, not a construction error.
			e.dumpLinesCold = int64(coldLines)
			b := meter.Units()
			preErr = meter.ChargeLines(coldLines)
			if preErr == nil {
				e.phaseSpan("disassembly", -1, b)
			}
		}
	}
	if preErr == simtime.ErrCanceled {
		// A cancellation is never a timed-out report: the caller owns the
		// terminal outcome of a killed job.
		return nil, preErr
	}
	e.preTimedOut = preErr != nil

	// The index is acquired on the first indexable command, inside
	// locate-sinks, through the bundle hook (bundle.go).
	e.search = bcsearch.NewEngine(dump, bcsearch.Config{
		Meter:       meter,
		Backend:     opts.SearchBackend,
		EnableCache: opts.EnableSearchCache,
		Index:       e.index,
	})
	e.search.SetObserver(func(cmd bcsearch.Command, hits []bcsearch.Hit) {
		e.rec.command(cmd)
		for _, h := range hits {
			if h.Method.Class != "" {
				e.rec.class(h.Method.Class)
			} else if cls, ok := classOfLine(dump, h.Line); ok {
				e.rec.class(cls)
			}
		}
	})
	return e, nil
}

// Meter exposes the work meter (used by experiment harnesses).
func (e *Engine) Meter() *simtime.Meter { return e.meter }

// phaseSpan reports a completed phase's charged-unit interval to the
// PhaseSpan hook. Zero-width intervals are suppressed: the phase
// charged nothing, so there is no timeline mass to attribute.
func (e *Engine) phaseSpan(phase string, sink int, start int64) {
	if e.opts.PhaseSpan == nil {
		return
	}
	if end := e.meter.Units(); end > start {
		e.opts.PhaseSpan(phase, sink, start, end)
	}
}

// Hierarchy exposes the class hierarchy (used by detectors and tests).
func (e *Engine) Hierarchy() *cha.Hierarchy { return e.hier }

// Analyze runs the full BackDroid pipeline and returns the report. On
// simulated timeout the report carries TimedOut=true with whatever sinks
// completed.
func (e *Engine) Analyze() (*Report, error) {
	start := time.Now()
	report := &Report{App: e.app.Name, Registered: registeredComponents(e.app.Manifest)}
	if e.preTimedOut {
		report.TimedOut = true
		e.fillStats(report, start)
		return report, nil
	}

	lb := e.meter.Units()
	calls, err := e.locateSinkCalls()
	if err != nil {
		if err == simtime.ErrTimeout {
			report.TimedOut = true
			e.fillStats(report, start)
			return report, nil
		}
		return nil, err
	}
	e.phaseSpan("locate-sinks", -1, lb)

	// Chunked entry point (chunk.go): clamp the window onto the canonical
	// list and remember the offset, so progress polls and steal fences
	// speak global positions regardless of which chunk is running.
	total := len(calls)
	offset := 0
	if cr := e.opts.ChunkRange; cr != nil {
		from, to := cr.From, cr.To
		if from < 0 {
			from = 0
		}
		if to > total {
			to = total
		}
		if from > to {
			from = to
		}
		calls = calls[from:to]
		offset = from
	}

	rb := e.meter.Units()
	reuse, err := e.planDeltaReuse(calls)
	if err != nil {
		if err == simtime.ErrTimeout {
			report.TimedOut = true
			e.fillStats(report, start)
			return report, nil
		}
		return nil, err
	}
	e.phaseSpan("delta-reuse", -1, rb)
	for i, call := range calls {
		if e.opts.SinkProgress != nil && e.opts.SinkProgress(offset+i, total) {
			// The position was fenced away by a steal: stop cleanly
			// with the partial report of the sinks already done.
			break
		}
		sr := reuse[i]
		if sr != nil {
			e.sinksReused++
		} else {
			if e.deltaDiff != nil {
				e.sinksRerun++
			}
			// The sink's footprint frame captures every class and search
			// command its analysis consults (delta.go); the caller class
			// is seeded explicitly for the early-unreachable paths that
			// never look its body up.
			frame := e.rec.push()
			e.rec.class(call.Caller.Class)
			sr, err = e.analyzeSinkCall(call, offset+i)
			e.rec.pop()
			if err != nil {
				if err == simtime.ErrTimeout {
					report.TimedOut = true
					break
				}
				return nil, err
			}
			sr.Footprint = frame.footprint()
		}
		report.Sinks = append(report.Sinks, sr)
		if e.opts.SinkObserver != nil {
			e.opts.SinkObserver(sr)
		}
	}

	e.fillStats(report, start)
	return report, nil
}

func (e *Engine) fillStats(report *Report, start time.Time) {
	loops := make(map[LoopKind]int, len(e.loops))
	for k, v := range e.loops {
		loops[k] = v
	}
	storeHits, storeMisses := e.bundle.storeCounts()
	dumpHits, dumpMisses := e.bundle.dumpCounts()
	report.Stats = Stats{
		Search:                e.search.Stats(),
		SinkCallsTotal:        e.sinkTotal,
		SinkCallsCached:       e.sinkCached,
		Loops:                 loops,
		MethodsAnalyzed:       len(e.analyzed),
		WorkUnits:             e.meter.Units(),
		SimMinutes:            e.meter.Minutes(),
		WallTime:              time.Since(start),
		DumpCacheHits:         dumpHits,
		DumpCacheMisses:       dumpMisses,
		DumpCacheUnits:        e.dumpCacheUnits,
		DumpLinesDisassembled: e.dumpLinesCold,
		BundleStoreHits:       storeHits,
		BundleStoreMisses:     storeMisses,
		CancelPolls:           e.meter.CancelPolls(),
		SinksReused:           e.sinksReused,
		SinksRerun:            e.sinksRerun,
		DeltaReusedLines:      e.deltaReusedLines,
	}
}

// prepareSinkCall backtracks one sink call and builds its SSG —
// everything up to but excluding the forward pass.
func (e *Engine) prepareSinkCall(call SinkCall) (*SinkReport, error) {
	e.sinkTotal++
	sr := &SinkReport{Call: call}

	caller := e.prog.ID(call.Caller)
	if e.opts.EnableSinkCache {
		if st, ok := e.reachCache[caller]; ok {
			e.sinkCached++
			sr.Cached = true
			// The cached computation's footprint fragment belongs to this
			// sink too — it answers (part of) its reachability.
			e.rec.merge(st.frag)
			if !st.reachable {
				sr.Reachable = false
				return sr, nil
			}
			// Reachable and cached: still slice for the values.
		}
	}

	frame := e.rec.push()
	reachable, entries, err := e.reachable(call.Caller)
	e.rec.pop()
	if err != nil {
		return nil, err
	}
	if e.opts.EnableSinkCache {
		e.reachCache[caller] = &reachState{reachable: reachable, entries: entries, frag: frame}
	}
	sr.Reachable = reachable
	sr.Entries = entries
	if !reachable {
		return sr, nil
	}

	g, err := e.buildSSG(call)
	if err != nil {
		return nil, err
	}
	sr.SSG = g
	for _, en := range entries {
		g.MarkEntry(e.prog.ID(en), en)
	}
	return sr, nil
}

// analyzeSinkCall backtracks one sink call, builds its SSG and runs the
// forward pass. pos is the sink's canonical position, attributed to the
// phase spans.
func (e *Engine) analyzeSinkCall(call SinkCall, pos int) (*SinkReport, error) {
	b := e.meter.Units()
	sr, err := e.prepareSinkCall(call)
	if err != nil {
		return nil, err
	}
	e.phaseSpan("backslice", pos, b)
	if !sr.Reachable {
		return sr, nil
	}

	b = e.meter.Units()
	values, err := e.propagate(sr.SSG, call)
	if err != nil {
		return nil, err
	}
	e.phaseSpan("constprop", pos, b)
	sr.Values = make([]string, len(values))
	for i, v := range values {
		sr.Values[i] = v.String()
	}
	sr.Insecure = vuln.Judge(call.Sink.Rule, values)
	return sr, nil
}
