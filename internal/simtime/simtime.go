// Package simtime provides the deterministic work meter that stands in for
// wall-clock measurement in the paper's evaluation. Every analysis pass
// charges units for the work it performs (IR statements visited, dump lines
// scanned, call-graph edges resolved); a calibration constant maps units to
// "simulated minutes" on the paper's i7-4790 scale, and budgets reproduce
// the 300-minute timeout regime of Sec. VI-A.
//
// Absolute times on a synthetic substrate are meaningless; ratios and
// distribution shapes (speedup factors, timeout rates, histogram buckets)
// are calibration-independent, which is what cmd/benchrun's
// paper-vs-measured tables compare (DESIGN.md Sec. 5 has the constants).
package simtime

import (
	"errors"
	"fmt"
)

// Calibration constants. See DESIGN.md Sec. 5.
const (
	// UnitsPerMinute maps work units to simulated minutes: the throughput
	// an Amandroid-class analysis achieves on the paper's hardware.
	UnitsPerMinute = 25000

	// LinesPerUnit is how many dump text lines one work unit scans. Text
	// search is much cheaper per element than semantic IR analysis.
	LinesPerUnit = 40

	// IndexBuildLinesPerUnit is how many dump lines one work unit
	// tokenizes while building the inverted search index. Tokenization
	// extracts and hashes every operand token, so it is ~2x the cost of a
	// plain substring scan — paid once per app, after which commands
	// resolve from postings.
	IndexBuildLinesPerUnit = 20

	// PostingsPerUnit is how many inverted-index postings one work unit
	// visits. A posting points straight at a candidate line, so visiting
	// one is much cheaper than scanning a line of text for a match.
	PostingsPerUnit = 400

	// IndexCacheLoadLinesPerUnit is how many dump lines' worth of index one
	// work unit deserializes from the persistent cache. Loading postings
	// back is a flat decode — ~10x cheaper than tokenizing the same lines,
	// which is the entire point of the cache.
	IndexCacheLoadLinesPerUnit = 200

	// DumpCacheLoadLinesPerUnit is how many dump text lines one work unit
	// reads back from the persistent bundle's dump section. The dump is
	// stored pre-rendered, so a warm start is a sequential read plus a
	// newline split — ~10x cheaper than the per-line formatting pass of
	// disassembly (LinesPerUnit), and cheaper than the index-section decode
	// too (no postings maps to rebuild). A fully warm engine run charges
	// this instead of ChargeLines(LineCount) and nothing else for
	// preprocessing.
	DumpCacheLoadLinesPerUnit = 400

	// BundleStoreLoadLinesPerUnit is how many dump text lines' worth of
	// bundle one work unit materializes from the in-memory content-addressed
	// store. A store hit skips the disk read that the persistent-cache path
	// pays — only the section decode remains — so it is priced at ~2x the
	// on-disk dump-cache load rate. The batch service charges this for every
	// re-analysis of a known app fingerprint.
	BundleStoreLoadLinesPerUnit = 800

	// CancelCheckpointUnits is how often a meter with a checkpoint hook
	// installed calls it: at most this many units of work are charged
	// between two polls, so a cooperatively canceled analysis stops within
	// one checkpoint of the cancel request. Small enough that even cheap
	// passes (constprop charges one unit per SSG statement) notice a
	// cancel promptly; large enough that the poll itself — one atomic
	// load in the scheduler's closure — never shows up in profiles.
	CancelCheckpointUnits = 32

	// ManifestDiffClassesPerUnit is how many class-span fingerprints one work
	// unit compares when diffing the manifests of two app versions.
	// A manifest entry is a precomputed 64-bit hash plus a name, so the
	// diff is a map probe per class — far cheaper than touching any dump
	// line. Charged once per delta run over the union of both versions'
	// class counts.
	ManifestDiffClassesPerUnit = 128

	// DeltaReuseLinesPerUnit is how many dump text lines' worth of settled
	// analysis one work unit carries over from the previous version's
	// report during a delta run. Reuse copies a finished sink verdict and
	// revalidates its footprint against the manifest diff — no search, no
	// slicing, no propagation — so it is priced at ~2x the bundle-store
	// load rate: cheaper than re-reading the dump, because only the
	// footprint's classes are touched.
	DeltaReuseLinesPerUnit = 1600

	// SettledLookupUnits is the flat charged cost of serving an already-
	// settled (app fingerprint, options fingerprint) pair from the report
	// store: two hash computations and one map probe — O(1), independent
	// of app size, sink count or report length. This is the read path of
	// the whole-app study's write-once/read-many deployment: every
	// resubmission of a settled job charges this instead of an engine
	// run, so a 10x resubmission storm costs well under 1% of the cold
	// corpus (the benchgate settled-storm leg gates the ceiling).
	SettledLookupUnits = 1

	// JournalAppendUnits is the charged cost of appending one record to
	// the control plane's job journal: an in-memory encode plus a
	// buffered sequential write, tiny next to any analysis pass. The
	// scheduler charges it on a control meter separate from the per-job
	// meters, so the benchgate fair-dispatch leg can pin journal overhead
	// as a fraction of analysis work.
	JournalAppendUnits = 1

	// TimeoutMinutes is the per-app analysis timeout of the paper's
	// evaluation (Sec. VI-A: 300 minutes).
	TimeoutMinutes = 300

	// LeaseTTLUnits is the fleet coordinator's per-job lease time-to-live
	// on the fleet-global clock (which advances by every node's charged
	// work units). A worker node renews its job's lease at every meter
	// heartbeat, so a live node keeps its lease fresh; a node that dies
	// or goes mute stops renewing, its lease crosses the TTL and the
	// coordinator fences the node and re-dispatches the job. The TTL
	// must be comfortably larger than the largest single meter charge
	// times the node count — between one node's two renewals the global
	// clock moves by everything the whole fleet charged in that window —
	// and small enough that the charged detection latency stays a sliver
	// of a real analysis (an average bench app is ~2-20k units). The
	// benchgate fleet-chaos leg gates the resulting retry/handoff
	// overhead under 10% of charged analysis work.
	LeaseTTLUnits = 512

	// HandoffUnits is the flat charged cost of one journal-backed job
	// handoff: the coordinator replays the job's submit record, re-queues
	// it at the front of its tenant's queue and appends a handoff record.
	// Control-plane work, priced like a few journal appends.
	HandoffUnits = 8

	// RetryBackoffUnits is the base re-dispatch backoff charged after a
	// lease expiry, doubled per lost attempt of the same job (16, 32,
	// 64, ...): the coordinator's deliberate pause before handing a
	// twice-lost job to yet another node.
	RetryBackoffUnits = 16

	// StealUnits is the flat charged cost of dispatching one stolen
	// sink chunk: the coordinator fences the victim's range, appends a
	// steal record and hands the chunk to the idle node. Control-plane
	// work priced like a handoff; the thief's own warm bundle load and
	// sink location are charged by its engine run as analysis work.
	// This charge is the steal overhead the benchgate heavy-tail leg
	// gates under 10% of charged work.
	StealUnits = 8

	// StealMinSinks is the minimum number of unstarted sinks a running
	// job must still have before an idle node may steal from it. Below
	// it the remaining tail is cheaper to finish in place than to
	// re-locate on a thief.
	StealMinSinks = 8

	// StealAfterUnits is the charged-work threshold a job's current
	// attempt must pass before it becomes a steal victim: stealing is for the
	// heavy tail, and a job that has charged this much while other
	// nodes sit idle has proven itself the tail. Roughly the cost of a
	// small bench app, so light jobs finish in place.
	StealAfterUnits = 256
)

// ErrTimeout is returned by Charge when the budget is exhausted — the
// analogue of Amandroid's 300-minute timeout kills.
var ErrTimeout = errors.New("simtime: analysis budget exhausted (timeout)")

// ErrCanceled is returned by Charge once the meter's checkpoint hook
// returns true: the analysis was killed from outside (Scheduler.Cancel of
// a running job), not by its own budget. Distinct from ErrTimeout so
// engine paths that convert budget exhaustion into a timed-out report
// never swallow a cancellation — it propagates out of Analyze as an
// error.
var ErrCanceled = errors.New("simtime: analysis canceled")

// Meter accumulates work units, optionally against a budget.
type Meter struct {
	units  int64
	budget int64 // 0 means unlimited

	// The checkpoint hook (SetCheckpoint). lastPoll is the unit count
	// at the previous checkpoint; canceled latches the first true return
	// so every later Charge keeps failing without calling the hook again.
	checkpoint func(units, delta int64) bool
	lastPoll   int64
	polls      int64
	canceled   bool
}

// NewMeter returns an unlimited meter.
func NewMeter() *Meter { return &Meter{} }

// NewMeterWithTimeout returns a meter that times out after the given number
// of simulated minutes.
func NewMeterWithTimeout(minutes float64) *Meter {
	return &Meter{budget: MinutesToUnits(minutes)}
}

// SetBudget sets the unit budget; zero disables the budget.
func (m *Meter) SetBudget(units int64) { m.budget = units }

// SetCheckpoint installs the meter's one watch hook: Charge calls it
// every CancelCheckpointUnits of work with the cumulative units and the
// units charged since the previous checkpoint, and returning true
// aborts the analysis with ErrCanceled. It is how a run is watched from
// outside without charging anything: the scheduler samples the trace
// counter, ticks the fleet heartbeat (the delta, not a fixed interval,
// keeps the fleet clock honest: one large charge advances it by the
// work actually done) and polls the cancel flag from it. The hook must
// be cheap and safe to call from the analysis goroutine; nil removes
// it. Cancellation latches — after the first true return every later
// Charge fails — so analysis layers that absorb one error cannot resume
// work.
func (m *Meter) SetCheckpoint(hook func(units, delta int64) bool) {
	m.checkpoint = hook
	m.lastPoll = m.units
}

// Canceled reports whether the checkpoint hook has latched a cancel.
// Layers with natural abort points (bcsearch before a command, constprop
// at method entry) check it directly so they stop even between charge
// checkpoints.
func (m *Meter) Canceled() bool { return m.canceled }

// CancelPolls returns how many times the checkpoint hook ran — the
// checkpoint counter surfaced by the service stats.
func (m *Meter) CancelPolls() int64 { return m.polls }

// Charge adds n work units. It returns ErrTimeout once the cumulative work
// exceeds the budget, and ErrCanceled once the checkpoint hook (if any)
// returns true. The overage is still recorded so reports can show how
// far past the deadline the analysis was killed; a canceled
// analysis likewise keeps the units of the work it did before the
// checkpoint — cancellation charges only work actually performed.
func (m *Meter) Charge(n int64) error {
	if n < 0 {
		return fmt.Errorf("simtime: negative charge %d", n)
	}
	m.units += n
	if m.canceled {
		return ErrCanceled
	}
	if m.checkpoint != nil && m.units-m.lastPoll >= CancelCheckpointUnits {
		delta := m.units - m.lastPoll
		m.lastPoll = m.units
		m.polls++
		if m.checkpoint(m.units, delta) {
			m.canceled = true
			return ErrCanceled
		}
	}
	if m.budget > 0 && m.units > m.budget {
		return ErrTimeout
	}
	return nil
}

// ChargeLines charges for scanning n dump text lines.
func (m *Meter) ChargeLines(n int) error {
	if n <= 0 {
		return m.Charge(1)
	}
	return m.Charge(int64(n/LinesPerUnit) + 1)
}

// ChargeIndexBuild charges for tokenizing n dump lines into the inverted
// search index (a one-time per-app cost on the indexed backend).
func (m *Meter) ChargeIndexBuild(n int) error {
	if n <= 0 {
		return m.Charge(1)
	}
	return m.Charge(int64(n/IndexBuildLinesPerUnit) + 1)
}

// ChargeIndexCacheLoad charges for deserializing a persistent index cache
// covering n dump lines — the warm-start path that replaces tokenization.
func (m *Meter) ChargeIndexCacheLoad(n int) error {
	if n <= 0 {
		return m.Charge(1)
	}
	return m.Charge(int64(n/IndexCacheLoadLinesPerUnit) + 1)
}

// ChargeDumpCacheLoad charges for reading n dump text lines back from the
// persistent bundle's dump section — the fully-warm path that replaces the
// disassembly pass entirely.
func (m *Meter) ChargeDumpCacheLoad(n int) error {
	if n <= 0 {
		return m.Charge(1)
	}
	return m.Charge(int64(n/DumpCacheLoadLinesPerUnit) + 1)
}

// ChargeBundleStoreLoad charges for materializing a bundle covering n dump
// text lines from the in-memory content-addressed store — the batch-service
// warm path that replaces both the disk read and the disassembly pass.
func (m *Meter) ChargeBundleStoreLoad(n int) error {
	if n <= 0 {
		return m.Charge(1)
	}
	return m.Charge(int64(n/BundleStoreLoadLinesPerUnit) + 1)
}

// ChargeManifestDiff charges for diffing two manifests covering n class
// spans in total (union of both versions). The diff compares precomputed
// per-class fingerprints, so the cost scales with class count, not lines.
func (m *Meter) ChargeManifestDiff(n int) error {
	if n <= 0 {
		return m.Charge(1)
	}
	return m.Charge(int64(n/ManifestDiffClassesPerUnit) + 1)
}

// ChargeDeltaReuse charges for carrying over settled analysis covering n
// dump text lines from a prior version's report — the delta path that
// replaces search, slicing and propagation for sinks whose footprint
// touches only unchanged classes.
func (m *Meter) ChargeDeltaReuse(n int) error {
	if n <= 0 {
		return m.Charge(1)
	}
	return m.Charge(int64(n/DeltaReuseLinesPerUnit) + 1)
}

// ChargeSettledLookup charges for answering a resubmission of a settled
// (app, options) pair from the content-addressed report store — the O(1)
// read path that replaces disassembly, index builds and the engine run
// entirely.
func (m *Meter) ChargeSettledLookup() error {
	return m.Charge(SettledLookupUnits)
}

// ChargePostings charges for visiting n inverted-index postings.
func (m *Meter) ChargePostings(n int) error {
	if n <= 0 {
		return m.Charge(1)
	}
	return m.Charge(int64(n/PostingsPerUnit) + 1)
}

// Units returns the accumulated work units.
func (m *Meter) Units() int64 { return m.units }

// Minutes returns the accumulated work in simulated minutes.
func (m *Meter) Minutes() float64 { return UnitsToMinutes(m.units) }

// Exhausted reports whether the meter has passed its budget.
func (m *Meter) Exhausted() bool { return m.budget > 0 && m.units > m.budget }

// MinutesToUnits converts simulated minutes to work units. Any positive
// duration yields at least one unit so tiny budgets still enforce a limit.
func MinutesToUnits(minutes float64) int64 {
	units := int64(minutes * UnitsPerMinute)
	if units == 0 && minutes > 0 {
		return 1
	}
	return units
}

// UnitsToMinutes converts work units to simulated minutes.
func UnitsToMinutes(units int64) float64 { return float64(units) / UnitsPerMinute }
