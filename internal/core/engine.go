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
	"os"
	"runtime"
	"time"

	"backdroid/internal/android"
	"backdroid/internal/apk"
	"backdroid/internal/bcsearch"
	"backdroid/internal/cha"
	"backdroid/internal/constprop"
	"backdroid/internal/dex"
	"backdroid/internal/dexdump"
	"backdroid/internal/ir"
	"backdroid/internal/simtime"
	"backdroid/internal/ssg"
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
	// inverted index over the dump text; BackendSharded splits that index
	// per classesN.dex (package-prefix shards for single-dex apps) so
	// construction parallelizes and postings stay shard-local;
	// BackendLinear is the paper-faithful full-text scan, kept for
	// ablations.
	SearchBackend bcsearch.BackendKind

	// IndexShards overrides the shard count of BackendSharded. 0 is auto:
	// one shard per classesN.dex for multidex apps, DefaultShards
	// package-prefix shards otherwise. Ignored by other backends.
	IndexShards int

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

	// MemoizeForwardPass caches constprop method evaluations keyed by
	// (callee, argument facts) within one forward pass, so callees shared
	// by many call edges are evaluated once per distinct fact environment.
	// Results are identical with the cache on or off; on by default.
	MemoizeForwardPass bool

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

	// PerAppSSG shares one slicing graph across all sink calls of the app
	// instead of building one SSG per sink — the extension the paper
	// plans for apps with very many sinks (Secs. V-A, VI-D). Slices and
	// taints accumulated for earlier sinks are reused by later ones.
	PerAppSSG bool

	// MaxDepth bounds inter-procedural backtracking and forward taint
	// chains.
	MaxDepth int

	// TimeoutMinutes aborts the analysis after this much simulated time;
	// 0 disables the budget (BackDroid needs no timeout in the paper).
	TimeoutMinutes float64

	// Cancel, when non-nil, is the cooperative kill switch of the batch
	// control plane: the engine's meter polls it every
	// simtime.CancelCheckpointUnits of charged work — which covers every
	// constprop forward pass and every bcsearch lookup, since both charge
	// the meter — and the analysis aborts with simtime.ErrCanceled within
	// one checkpoint of the poll turning true. Unlike a timeout, a
	// cancellation is an error out of Analyze, never a TimedOut report:
	// the caller (Scheduler.Cancel) owns the terminal event. The poll
	// must be cheap and goroutine-safe; the scheduler passes an
	// atomic-flag read.
	Cancel func() bool

	// Heartbeat, when non-nil, is the fleet control plane's liveness
	// hook: the meter calls it at every cancellation checkpoint with the
	// units charged since the previous one, so the scheduler can advance
	// the executing node's odometer and the fleet-global clock by the
	// work actually performed, renew (or drop) the job's lease and
	// consult the fault plan. Returning true aborts the analysis with
	// simtime.ErrCanceled at that checkpoint — the path by which a
	// fenced node's running attempt observes its own death. Like Cancel,
	// it runs on the analysis goroutine and must be cheap.
	Heartbeat func(delta int64) bool

	// SinkObserver, when non-nil, receives every SinkReport as soon as its
	// verdict is final — per sink call during the per-sink pipeline, after
	// the shared forward pass in PerAppSSG mode. The callback runs
	// synchronously on the analysis goroutine, in report order; the batch
	// service streams these as events while the job is still running.
	SinkObserver func(*SinkReport)

	// DeltaFrom, when non-nil, supplies the prior version of the app for
	// incremental re-analysis (DESIGN.md Sec. 10): the engine diffs the
	// two shard manifests and carries over every settled sink verdict
	// whose recorded footprint provably cannot observe the update,
	// charging the cheap ChargeShardDiff/ChargeDeltaReuse rates for the
	// unchanged mass. The report is identical to a full re-analysis; only
	// the charged cost shrinks. Ignored (silent full run) when the base
	// is unusable — timed out, undecodable manifest — or when PerAppSSG
	// is set, whose shared-graph slices have no per-sink footprint.
	DeltaFrom *DeltaBase

	// SinkChunk is the sink-chunk grain of the fleet's work-stealing
	// scheduler: located sink call sites partition into chunks of this
	// many consecutive positions of the canonical (line-ordered) sink
	// list, and a stolen range is always chunk-aligned. The engine only
	// carries the grain — chunk boundaries drive the scheduler's steal
	// decisions, never the analysis itself, so the field is
	// fingerprint-neutral. 0 disables chunk-level scheduling for the
	// job.
	SinkChunk int

	// ChunkRange, when non-nil, restricts the run to the canonical
	// positions [From, To) of the located sink-call list — the
	// resumable per-sink entry point of the fleet's work stealing (see
	// chunk.go). The chunk runs against the same warm bundle as any
	// other run and emits a partial Report covering exactly its window;
	// MergeReports unions the parts back into the canonical single-pass
	// report. A chunked run ignores DeltaFrom: a partial report must
	// not depend on a delta base the other chunks lack.
	ChunkRange *ChunkRange

	// PhaseSpan, when non-nil, receives one call per completed engine
	// phase with the phase's charged-unit bounds [start, end) on this
	// engine's meter: the preprocessing phases (disassembly or the warm
	// bundle/dump load, the index build or load, the delta manifest
	// diff) and, per analyzed sink, the backward slice and the forward
	// constprop pass, with sink carrying the canonical sink position
	// (-1 for app-level phases, including the single shared forward
	// pass of PerAppSSG mode). The callback runs synchronously on the
	// analysis goroutine after the phase's last charge; it must never
	// charge the meter itself, so enabling it cannot move a single
	// checkpoint — tracing is observationally free in simulated time.
	// A phase aborted by timeout or cancellation emits no span.
	PhaseSpan func(phase string, sink int, start, end int64)

	// MeterCheckpoint, when non-nil, is installed as the meter's
	// checkpoint observer (simtime.SetCheckpointObserver): it receives
	// the cumulative units and checkpoint delta at every cancellation
	// checkpoint, before the heartbeat and cancel polls run. The
	// tracer's charged-units counter samples come from here. Note that
	// installing it on a run with neither Cancel nor Heartbeat enables
	// checkpointing where a plain run has none; the service always
	// installs Cancel, so its traced runs poll identically to untraced
	// ones.
	MeterCheckpoint func(units, delta int64)

	// SinkProgress, when non-nil, is polled immediately before each
	// sink call is analyzed (before each sink is prepared, in PerAppSSG
	// mode), with the sink's position in the canonical list and the
	// list's total length. Returning true stops the run before that
	// sink — its position was fenced away by a steal — and Analyze
	// returns the partial report of the sinks already completed, not an
	// error. The fleet scheduler's victim hook also uses the first poll
	// to learn the job's total sink count.
	SinkProgress func(next, total int) bool
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
		MemoizeForwardPass:  true,
		MaxDepth:            25,
		SinkChunk:           8,
	}
}

// BundleCache is the in-memory content-addressed bundle store seam:
// encoded .bdx bundle bytes keyed by app fingerprint (see
// dexdump.AppFingerprint). GetBundle returns the entry and marks it
// recently used; PutBundle inserts it (a later Put of the same
// fingerprint is a refresh — entries are content-addressed, so the bytes
// are identical). Implementations must be safe for concurrent use: the
// batch service analyzes many apps at once against one store.
type BundleCache interface {
	GetBundle(fingerprint uint64) ([]byte, bool)
	PutBundle(fingerprint uint64, data []byte)
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
	// update. Nil in PerAppSSG mode and on carried-over base reports
	// that never recorded one.
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

	// ForwardMemoHits counts constprop method evaluations answered from
	// the forward-pass memo cache (Options.MemoizeForwardPass).
	ForwardMemoHits int64

	// SettledLookups counts reports served whole from the settled-result
	// tier (service.ReportStore): the job charged one O(1) lookup and ran
	// no engine at all — zero disassembly, zero index builds, zero
	// analysis. Set by the batch service, never by the engine itself; a
	// report with SettledLookups > 0 carries the charged lookup cost in
	// WorkUnits and the settled verdicts in Sinks.
	SettledLookups int

	// CancelPolls counts the cancellation checkpoints the meter hit
	// (Options.Cancel); zero when no cancel poll is installed.
	CancelPolls int64

	// Delta accounting (Options.DeltaFrom); all zero on non-delta runs.
	// ShardsUnchanged/ShardsChanged compare the two bundles' shard
	// fingerprints; SinksReused counts verdicts carried over from the
	// base report, SinksRerun the located sinks that went through the
	// full pipeline on a delta run; DeltaReusedLines is the unchanged
	// footprint mass charged at the cheap delta-reuse rate.
	ShardsUnchanged  int
	ShardsChanged    int
	SinksReused      int
	SinksRerun       int
	DeltaReusedLines int64
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

	reachCache  map[string]*reachState
	callerCache map[string][]callerSite
	entryCache  map[string]bool
	analyzed    map[string]bool
	loops       map[LoopKind]int
	sinkTotal   int
	sinkCached  int
	lastValues  []constprop.Value
	preTimedOut bool
	appSSG      *ssg.Graph // shared graph when PerAppSSG is set

	// Per-app slice interning (PerAppSSG only): key -> taint state at the
	// time the interned slice completed. sliceCutoffs counts every
	// depth-bound or loop-cutoff truncation, so a slice whose subtree was
	// truncated is never interned as if it were complete. See
	// backslice.go.
	sliceIntern  map[string]internRecord
	sliceCutoffs int64
	// Engine-wide static-field writer cache, shared across all slicers
	// (the writer set is a pure function of the dump).
	writerCache map[string]map[string]bool

	// Warm-start dump cache accounting (see Stats).
	dumpCacheHits   int
	dumpCacheMisses int
	dumpCacheUnits  int64
	dumpLinesCold   int64

	// In-memory bundle store accounting (see Stats).
	bundleStoreHits   int
	bundleStoreMisses int

	// Forward-pass memoization accounting (see Stats).
	memoHits int64

	// Delta analysis state (Options.DeltaFrom; see delta.go). rec is the
	// footprint recorder, non-nil whenever footprints are collected (all
	// non-PerAppSSG runs, so any run can later serve as a delta base);
	// callerFrag/writerFrag hold the footprint fragments of the caller
	// and static-writer caches.
	rec              *fpRecorder
	callerFrag       map[string]*fpFrame
	writerFrag       map[string]*fpFrame
	deltaOldReport   *Report
	deltaOldMan      *dexdump.Manifest
	deltaNewMan      *dexdump.Manifest
	deltaDiff        *dexdump.ManifestDiff
	sinksReused      int
	sinksRerun       int
	deltaReusedLines int64
}

// New preprocesses the app (paper Sec. III step 1): merges multidex,
// obtains the bytecode plaintext and builds the search and IR
// infrastructure. With a bundle available (from Bundles or IndexCacheDir)
// its dump section is probed first: a valid cached dump makes this a warm
// start — zero disassembly, charged at the cheap ChargeDumpCacheLoad rate
// — while any invalid or absent dump section falls back to disassembly
// transparently and self-heals the bundle.
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
	if opts.Cancel != nil {
		meter.SetCancel(opts.Cancel)
	}
	if opts.Heartbeat != nil {
		meter.SetHeartbeat(opts.Heartbeat)
	}
	if opts.MeterCheckpoint != nil {
		meter.SetCheckpointObserver(opts.MeterCheckpoint)
	}

	// Warm-start probes, before any merge or disassembly work. The
	// in-memory bundle store is asked first — a hit costs zero disk I/O —
	// then the on-disk bundle file, which is read once; the searcher
	// decodes its index section from the same bytes either way.
	var fingerprint uint64
	var bundleBytes []byte
	storeHit := false
	cachePath := ""
	if opts.IndexCacheDir != "" {
		cachePath = dexdump.CachePath(opts.IndexCacheDir, app.Name)
	}
	if opts.IndexCacheDir != "" || opts.Bundles != nil {
		fingerprint = dexdump.AppFingerprint(app.Dexes)
	}
	if opts.Bundles != nil {
		if data, ok := opts.Bundles.GetBundle(fingerprint); ok && len(data) != 0 {
			bundleBytes = data
			storeHit = true
		}
	}
	probed := storeHit || cachePath != ""
	if !storeHit && cachePath != "" {
		if data, err := os.ReadFile(cachePath); err == nil {
			bundleBytes = data
		}
	}
	var dump *dexdump.Text
	if probed {
		if t, err := dexdump.DecodeBundleDump(bundleBytes, fingerprint); err == nil {
			dump = t
		}
	}
	if storeHit && dump == nil {
		// A store entry that does not validate (damaged or written for
		// different bytecode): drop it — a Put for a present fingerprint
		// is a no-op refresh, so without the drop the bad entry would be
		// pinned forever — and fall back to the cold path, which stores
		// a fresh bundle.
		if dropper, ok := opts.Bundles.(interface{ DropBundle(uint64) }); ok {
			dropper.DropBundle(fingerprint)
		}
		storeHit = false
		bundleBytes = nil
	}

	merged, err := app.MergedDex()
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
		reachCache:  make(map[string]*reachState),
		callerCache: make(map[string][]callerSite),
		entryCache:  make(map[string]bool),
		analyzed:    make(map[string]bool),
		loops:       make(map[LoopKind]int),
		writerCache: make(map[string]map[string]bool),
		sliceIntern: make(map[string]internRecord),
	}
	if opts.Bundles != nil {
		if storeHit {
			e.bundleStoreHits = 1
		} else {
			e.bundleStoreMisses = 1
		}
	}
	if !opts.PerAppSSG {
		// Footprint recording (delta.go): every run that can serve as a
		// delta base records, per sink, the classes and search commands
		// its analysis consulted. The per-app shared graph has no
		// per-sink attribution, so PerAppSSG runs record nothing.
		e.rec = &fpRecorder{}
		e.callerFrag = make(map[string]*fpFrame)
		e.writerFrag = make(map[string]*fpFrame)
		e.prog.SetObserver(func(ref dex.MethodRef) { e.rec.class(ref.Class) })
	}
	if d := opts.DeltaFrom; d != nil && !opts.PerAppSSG && opts.ChunkRange == nil && d.Report != nil && !d.Report.TimedOut {
		// A base bundle without a decodable manifest (other codec version,
		// damaged section) silently disables the delta path; the run is
		// then an ordinary full analysis.
		if om, ok := dexdump.DecodeManifest(d.Bundle); ok {
			e.deltaOldMan = om
			e.deltaOldReport = d.Report
		}
	}

	var preErr error
	coldLines := 0
	if dump != nil {
		// Warm path: the cached dump replaces disassembly entirely;
		// reading it back is charged at the flat cache-load rate — the
		// cheaper in-memory rate when the bundle came from the store.
		e.dumpCacheHits = 1
		before := meter.Units()
		name := "dump-load"
		if storeHit {
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
		if probed {
			e.dumpCacheMisses = 1
		}
		dump = dexdump.Disassemble(merged)
		coldLines = dump.LineCount()
	}
	e.dump = dump

	var plan *dexdump.ShardPlan
	if opts.SearchBackend == bcsearch.BackendSharded {
		plan = shardPlan(app, dump, opts.IndexShards)
	}

	deltaDumpLines := 0 // changed+added span lines, valid when deltaDiff != nil
	if e.deltaOldMan != nil {
		// The manifest diff is the delta run's first charged step: one
		// fingerprint-map probe per class of both versions' union.
		e.deltaNewMan = dexdump.BuildManifest(dump, plan)
		e.deltaDiff = dexdump.DiffManifests(e.deltaOldMan, e.deltaNewMan)
		deltaDumpLines = e.deltaNewMan.LinesOf(e.deltaDiff.Touched())
		if preErr == nil {
			b := meter.Units()
			preErr = meter.ChargeShardDiff(e.deltaDiff.TotalClasses())
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
			e.dumpLinesCold = int64(deltaDumpLines)
			b := meter.Units()
			preErr = meter.ChargeLines(deltaDumpLines)
			if preErr == nil {
				e.phaseSpan("disassembly", -1, b)
				b = meter.Units()
				preErr = meter.ChargeDeltaReuse(coldLines - deltaDumpLines)
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

	searchCfg := bcsearch.Config{
		Meter:          meter,
		Backend:        opts.SearchBackend,
		EnableCache:    opts.EnableSearchCache,
		CachePath:      cachePath,
		BundleBytes:    bundleBytes,
		AppFingerprint: fingerprint,
		// A dump miss on a configured cache means the bundle is absent or
		// damaged: have the searcher rewrite it even on an index cache
		// hit, so the next run starts fully warm.
		RefreshBundle: cachePath != "" && e.dumpCacheMisses > 0,
	}
	if opts.Bundles != nil && !storeHit && fingerprint != 0 {
		// Capture the bundle into the store once the searcher acquires the
		// index; a store hit needs no re-put (content-addressed entries
		// never change).
		store, fp := opts.Bundles, fingerprint
		searchCfg.StoreBundle = func(data []byte) { store.PutBundle(fp, data) }
	}
	if plan != nil {
		searchCfg.Plan = plan
		searchCfg.BuildWorkers = runtime.NumCPU()
	}
	if e.deltaDiff != nil {
		// Index-build charge follows the same delta model as the dump:
		// only dirty span lines tokenize at the full build rate (ignored
		// when the index itself loads from a cache or bundle).
		searchCfg.DeltaBuild = true
		searchCfg.DeltaIndexLines = deltaDumpLines
		searchCfg.DeltaReuseIndexLines = dump.LineCount() - deltaDumpLines
	}
	ib := meter.Units()
	e.search = bcsearch.NewEngine(dump, searchCfg)
	if preErr == nil {
		// Zero-width spans are suppressed by phaseSpan, so a backend that
		// builds its index lazily (charging on the first search instead)
		// emits nothing here.
		name := "index-build"
		if len(bundleBytes) != 0 {
			name = "index-load"
		}
		e.phaseSpan(name, -1, ib)
	}
	if e.rec != nil {
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
	}
	return e, nil
}

// shardPlan lays out the sharded search index for an app: one shard per
// classesN.dex when the app is multidex (the natural grain — each dex
// disassembles to a contiguous run of classes in the merged dump),
// deterministic package-prefix shards otherwise. An explicit shard-count
// override always uses package-prefix shards, which support any count.
func shardPlan(app *apk.App, dump *dexdump.Text, shards int) *dexdump.ShardPlan {
	if shards > 0 {
		return dexdump.PackagePrefixPlan(dump, shards)
	}
	if len(app.Dexes) > 1 {
		counts := make([]int, len(app.Dexes))
		for i, d := range app.Dexes {
			counts[i] = len(d.Classes())
		}
		return dexdump.PerDexPlan(dump, counts)
	}
	return dexdump.PackagePrefixPlan(dump, bcsearch.DefaultShards)
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

	if e.opts.PerAppSSG {
		timedOut, err := e.analyzeSinksPerApp(report, calls, offset, total)
		if err != nil {
			return nil, err
		}
		report.TimedOut = report.TimedOut || timedOut
		// Verdicts become final only after the shared forward pass, so
		// the stream is delivered per app here, in report order.
		if e.opts.SinkObserver != nil {
			for _, sr := range report.Sinks {
				e.opts.SinkObserver(sr)
			}
		}
	} else {
		rb := e.meter.Units()
		reuse, err := e.planDeltaReuse(calls)
		if err == nil {
			e.phaseSpan("delta-reuse", -1, rb)
		}
		if err != nil {
			if err == simtime.ErrTimeout {
				report.TimedOut = true
				e.fillStats(report, start)
				return report, nil
			}
			return nil, err
		}
		for i, call := range calls {
			if e.opts.SinkProgress != nil && e.opts.SinkProgress(offset+i, total) {
				// The position was fenced away by a steal: stop cleanly
				// with the partial report of the sinks already done.
				break
			}
			if sr := reuse[i]; sr != nil {
				e.sinksReused++
				report.Sinks = append(report.Sinks, sr)
				if e.opts.SinkObserver != nil {
					e.opts.SinkObserver(sr)
				}
				continue
			}
			if e.deltaDiff != nil {
				e.sinksRerun++
			}
			// The sink's footprint frame captures every class and search
			// command its analysis consults (delta.go); the caller class
			// is seeded explicitly for the early-unreachable paths that
			// never look its body up.
			frame := e.rec.push()
			e.rec.class(call.Caller.Class)
			sr, err := e.analyzeSinkCall(call, offset+i)
			e.rec.pop()
			if err != nil {
				if err == simtime.ErrTimeout {
					report.TimedOut = true
					break
				}
				return nil, err
			}
			if frame != nil {
				sr.Footprint = frame.footprint()
			}
			report.Sinks = append(report.Sinks, sr)
			if e.opts.SinkObserver != nil {
				e.opts.SinkObserver(sr)
			}
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
	report.Stats = Stats{
		Search:                e.search.Stats(),
		SinkCallsTotal:        e.sinkTotal,
		SinkCallsCached:       e.sinkCached,
		Loops:                 loops,
		MethodsAnalyzed:       len(e.analyzed),
		WorkUnits:             e.meter.Units(),
		SimMinutes:            e.meter.Minutes(),
		WallTime:              time.Since(start),
		DumpCacheHits:         e.dumpCacheHits,
		DumpCacheMisses:       e.dumpCacheMisses,
		DumpCacheUnits:        e.dumpCacheUnits,
		DumpLinesDisassembled: e.dumpLinesCold,
		BundleStoreHits:       e.bundleStoreHits,
		BundleStoreMisses:     e.bundleStoreMisses,
		ForwardMemoHits:       e.memoHits,
		CancelPolls:           e.meter.CancelPolls(),
		SinksReused:           e.sinksReused,
		SinksRerun:            e.sinksRerun,
		DeltaReusedLines:      e.deltaReusedLines,
	}
	if e.deltaDiff != nil {
		report.Stats.ShardsUnchanged = e.deltaDiff.ShardsUnchanged
		report.Stats.ShardsChanged = e.deltaDiff.ShardsChanged
	}
}

// prepareSinkCall backtracks one sink call and builds (or extends, in
// per-app mode) its SSG — everything up to but excluding the forward
// pass. It returns the report skeleton and the recorded sink call node
// (nil when the sink is unreachable or its caller failed translation).
func (e *Engine) prepareSinkCall(call SinkCall) (*SinkReport, *ssg.Unit, error) {
	e.sinkTotal++
	sr := &SinkReport{Call: call}

	sig := call.Caller.SootSignature()
	if e.opts.EnableSinkCache {
		if st, ok := e.reachCache[sig]; ok {
			e.sinkCached++
			sr.Cached = true
			// The cached computation's footprint fragment belongs to this
			// sink too — it answers (part of) its reachability.
			e.rec.merge(st.frag)
			if !st.reachable {
				sr.Reachable = false
				return sr, nil, nil
			}
			// Reachable and cached: still slice for the values.
		}
	}

	frame := e.rec.push()
	reachable, entries, err := e.reachable(call.Caller, nil, 0)
	e.rec.pop()
	if err != nil {
		return nil, nil, err
	}
	if e.opts.EnableSinkCache {
		e.reachCache[sig] = &reachState{reachable: reachable, entries: entries, frag: frame}
	}
	sr.Reachable = reachable
	sr.Entries = entries
	if !reachable {
		return sr, nil, nil
	}

	g, sinkUnit, err := e.buildSSG(call)
	if err != nil {
		return nil, nil, err
	}
	sr.SSG = g
	for _, en := range entries {
		g.MarkEntry(en)
	}
	return sr, sinkUnit, nil
}

// analyzeSinkCall backtracks one sink call, builds its SSG and runs the
// forward pass (the per-sink pipeline). pos is the sink's canonical
// position, attributed to the phase spans.
func (e *Engine) analyzeSinkCall(call SinkCall, pos int) (*SinkReport, error) {
	b := e.meter.Units()
	sr, sinkUnit, err := e.prepareSinkCall(call)
	if err != nil {
		return nil, err
	}
	e.phaseSpan("backslice", pos, b)
	if !sr.Reachable {
		return sr, nil
	}

	b = e.meter.Units()
	values, err := e.propagate(sr.SSG, sinkUnit, call)
	if err != nil {
		return nil, err
	}
	e.phaseSpan("constprop", pos, b)
	sr.Values = values
	sr.Insecure = e.judgeLast(call.Sink.Rule)
	return sr, nil
}

// analyzeSinksPerApp is the tuned per-app SSG pipeline (Secs. V-A, VI-D):
// every sink call is backtracked into the one shared slicing graph first —
// with contained-method slices interned, so subgraphs shared between sinks
// are built once — and the forward constant/points-to pass then runs a
// single time over the accumulated graph, collecting all sink parameter
// values in one traversal instead of once per sink. Returns whether the
// simulated budget ran out.
func (e *Engine) analyzeSinksPerApp(report *Report, calls []SinkCall, offset, total int) (bool, error) {
	type pendingSink struct {
		sr   *SinkReport
		unit *ssg.Unit
	}
	var pend []pendingSink
	for i, call := range calls {
		if e.opts.SinkProgress != nil && e.opts.SinkProgress(offset+i, total) {
			// Fenced mid-prepare: the forward pass below still runs over
			// the sinks already prepared — exactly the per-chunk shared
			// graph a thief builds for the stolen window.
			break
		}
		b := e.meter.Units()
		sr, unit, err := e.prepareSinkCall(call)
		if err != nil {
			if err == simtime.ErrTimeout {
				return true, nil
			}
			return false, err
		}
		e.phaseSpan("backslice", offset+i, b)
		report.Sinks = append(report.Sinks, sr)
		if sr.Reachable && unit != nil {
			pend = append(pend, pendingSink{sr: sr, unit: unit})
		}
	}
	if len(pend) == 0 || e.appSSG == nil {
		return false, nil
	}

	multi := make(map[*ssg.Unit]int, len(pend))
	for _, p := range pend {
		multi[p.unit] = p.sr.Call.Sink.ParamIndex
	}
	fb := e.meter.Units()
	res, err := constprop.Run(e.appSSG, e.prog, e.meter, constprop.Options{
		MaxDepth:   e.opts.MaxDepth,
		MultiSinks: multi,
		Memoize:    e.opts.MemoizeForwardPass,
	})
	if err != nil {
		if err == simtime.ErrTimeout {
			return true, nil
		}
		return false, err
	}
	// One shared forward pass for the whole app: sink -1 marks it
	// app-level, like the preprocessing phases.
	e.phaseSpan("constprop", -1, fb)
	e.memoHits += res.MemoHits
	for _, p := range pend {
		vals := res.MultiValues[p.unit]
		out := make([]string, len(vals))
		for i, v := range vals {
			out[i] = v.String()
		}
		p.sr.Values = out
		p.sr.Insecure = judgeValues(p.sr.Call.Sink.Rule, vals)
	}
	return false, nil
}
