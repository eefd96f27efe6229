// Command benchgate is the CI bench-regression gate for the bytecode
// search stack and the batch service built on it. It runs a fixed table
// of benchmark legs over a fixed corpus. Each leg measures, writes its
// BENCH_<leg>.json artifact into -out-dir, and only then checks its hard
// invariants, so a failing run always leaves the evidence behind. The
// search leg's charged work is finally gated against a checked-in
// baseline.
//
// The legs, in run order, and the invariants each enforces on every run,
// baseline or not:
//   - steal (BENCH_steal.json), the heavy-tail leg: the work-stealing
//     corpus (one 121-sink outlier submitted first, then small apps) runs
//     twice through a 4-node fleet, with sink-chunk stealing off
//     (service.Config.SinkChunk < 0) and on (the defaults). The steal
//     run's per-job report union must be byte-identical to the unsplit
//     run's, at least one chunk must be stolen, the charged makespan
//     (the busiest node's odometer) must shrink by at least 1.5x, and
//     the steal overhead must stay under 10% of the charged analysis
//     work. Its numbers also ride into BENCH_search.json and the
//     baseline, so it runs before the search leg;
//   - search (BENCH_search.json): the corpus once per search backend
//     (linear, indexed), then cold+warm against the persistent bundle
//     cache. Every backend and the warm bundle run must reproduce the
//     linear scan's detection output bit for bit, and the indexed
//     backend must beat the linear scan (speedup > 1). The service,
//     settled and warm legs read its results;
//   - service (BENCH_service.json), the batch-reuse leg: the corpus
//     submitted twice through one scheduler with an in-memory bundle
//     store. Both passes must reproduce the search leg's detection output
//     bit for bit; the second pass must charge zero index builds and zero
//     disassembly, hit the store once per app, and beat the first pass;
//   - tenant (BENCH_tenant.json), the fair-dispatch leg: a heavy tenant's
//     backlog and a light tenant's trickle through one journaled worker.
//     The light tenant's last job must dispatch inside the WRR fairness
//     bound, and the journal must charge under 5% of the analysis work;
//   - fleet (BENCH_fleet.json), the fleet-chaos leg: the tenant corpus
//     twice through a 4-node fleet, uninterrupted and under a
//     deterministic fault plan that kills two nodes mid-corpus. The chaos
//     run's canonical per-job report union must be byte-identical to the
//     uninterrupted run's, exactly two nodes must die and two jobs be
//     handed off, the light tenant must still dispatch inside the WRR
//     fairness bound, and the failure-detection + handoff + backoff
//     overhead must stay under 10% of the charged analysis work;
//   - delta (BENCH_delta.json), the app-update leg: per mutation kind the
//     updated app must reproduce its cold detection output when
//     re-analyzed against the base version's bundle and report, must
//     reuse at least one sink and charge less than cold, a one-class
//     update (change-literal, add-class) must charge under 10% of cold;
//   - settled (BENCH_settled.json), the resubmission-storm leg: the
//     corpus analyzed cold once through a scheduler with a report store,
//     then resubmitted ten more times. Every storm pass must be served
//     from the settled tier: detection output unchanged, canonical report
//     encodings bitwise identical to the cold pass, zero disassembly,
//     zero index builds and one settled lookup per app. The whole storm
//     must charge under 1% of the cold pass;
//   - warm (BENCH_warm.json), the warm-path trajectory: the search leg's
//     warm bundle run must charge zero index builds and zero disassembly,
//     load one cached dump per app, and beat the cold run. It also records
//     the speedup over the baseline's warm run.
//
// Usage:
//
//	benchgate [-baseline FILE] [-write-baseline] [-out-dir DIR]
//
// Charged work is simulated time (deterministic for a given corpus), so
// the gate is immune to runner noise: a regression means the search stack
// really does more work, not that the CI machine was slow. The 10%
// tolerance only absorbs deliberate cost-model recalibrations.
// Improvements are reported but do not fail the gate; refresh the
// baseline with -write-baseline when they should become the new floor.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"

	"backdroid/internal/android"
	"backdroid/internal/apk"
	"backdroid/internal/appgen"
	"backdroid/internal/bcsearch"
	"backdroid/internal/core"
	"backdroid/internal/experiments"
	"backdroid/internal/faultinject"
	"backdroid/internal/obs"
	"backdroid/internal/service"
	"backdroid/internal/service/journal"
)

// corpus is the measured benchmark corpus. gate refuses a baseline
// measured on any other.
var corpus = CorpusMeta{Apps: 16, Scale: 0.15, Seed: 20200523}

const (
	tolerance   = 0.10 // allowed charged-work regression vs the baseline
	stormPasses = 10   // settled-storm resubmissions of the corpus
	fleetNodes  = 4    // nodes of the fleet-chaos and heavy-tail legs
)

// report is a leg's artifact. check enforces the leg's hard invariants
// on it; it is pure, so every invariant is unit-testable on a synthetic
// report.
type report interface{ check() error }

// leg is one benchmark leg: measure runs it and returns its report, which
// the loop in run writes to BENCH_<name>.json before checking it. Parity
// failures (detection output or report encodings that diverge) are
// errors from measure itself.
type leg struct {
	name    string
	measure func(*bench) (report, error)
}

// legs is the gate, in run order (see the package comment).
var legs = []leg{
	{"steal", (*bench).steal},
	{"search", (*bench).search},
	{"service", (*bench).service},
	{"tenant", (*bench).tenant},
	{"fleet", (*bench).fleet},
	{"delta", (*bench).delta},
	{"settled", (*bench).settled},
	{"warm", (*bench).warm},
}

// config is benchgate's command line.
type config struct {
	baseline      string // baseline JSON to gate against; empty = no gate
	writeBaseline bool   // overwrite the baseline with this run's numbers
	outDir        string // directory the BENCH_<leg>.json artifacts go to
}

// bench carries one run's configuration and what later legs read from
// earlier ones.
type bench struct {
	cfg       config
	stealRep  *StealReport // the steal leg's report, recorded in BENCH_search.json
	searchRep Report       // the search leg's report, gated against the baseline
	cold      BackendCost  // the cold pass of the warm bundle runs
	det       string       // the indexed backend's detection summary
}

func main() {
	var cfg config
	flag.StringVar(&cfg.baseline, "baseline", "", "baseline JSON to gate against (empty = no gate)")
	flag.BoolVar(&cfg.writeBaseline, "write-baseline", false, "overwrite the baseline with this run's numbers")
	flag.StringVar(&cfg.outDir, "out-dir", ".", "directory the BENCH_<leg>.json artifacts are written to")
	flag.Parse()
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(1)
	}
}

func run(cfg config) error {
	if cfg.writeBaseline && cfg.baseline == "" {
		return fmt.Errorf("-write-baseline needs -baseline PATH")
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	b := &bench{cfg: cfg}
	for _, l := range legs {
		rep, err := l.measure(b)
		if err != nil {
			return fmt.Errorf("%s leg: %w", l.name, err)
		}
		path := filepath.Join(cfg.outDir, "BENCH_"+l.name+".json")
		if err := writeJSON(path, rep); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", path)
		if err := rep.check(); err != nil {
			return fmt.Errorf("%s leg: %w", l.name, err)
		}
	}

	if cfg.writeBaseline {
		if err := writeJSON(cfg.baseline, b.searchRep); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "baseline %s refreshed\n", cfg.baseline)
		return nil
	}
	if cfg.baseline == "" {
		return nil
	}
	return gate(b.searchRep, cfg.baseline, tolerance)
}

// writeJSON writes v to path as indented JSON with a trailing newline.
func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// BackendCost is the charged search work of one corpus run, summed over
// all apps. Deterministic for a given corpus and backend.
type BackendCost struct {
	LinesScanned    int64   `json:"lines_scanned"`
	PostingsScanned int64   `json:"postings_scanned"`
	IndexBuilds     int     `json:"index_builds"`
	IndexCacheHits  int     `json:"index_cache_hits"`
	DumpCacheHits   int     `json:"dump_cache_hits"`
	BundleStoreHits int     `json:"bundle_store_hits"`
	DumpLinesCold   int64   `json:"dump_lines_disassembled"`
	ForwardMemoHits int64   `json:"forward_memo_hits"`
	WorkUnits       int64   `json:"work_units"`
	SimMinutes      float64 `json:"sim_minutes"`
	// Phases breaks the charged units down by engine phase (disassembly,
	// index-build, backslice, constprop, ...), one duration histogram per
	// phase. Informational — never gated, because the split between
	// phases can shift under deliberate recalibrations that keep the
	// total flat.
	Phases map[string]obs.HistSnapshot `json:"phase_units,omitempty"`
}

// CorpusMeta identifies the measured corpus; baselines for a different
// corpus are not comparable.
type CorpusMeta struct {
	Apps  int     `json:"apps"`
	Scale float64 `json:"scale"`
	Seed  int64   `json:"seed"`
}

// Report is the BENCH_search.json schema.
type Report struct {
	Corpus         CorpusMeta             `json:"corpus"`
	Backends       map[string]BackendCost `json:"backends"`
	WarmCache      BackendCost            `json:"warm_cache"` // indexed backend, pre-warmed bundle cache
	SpeedupIndexed float64                `json:"speedup_indexed"`
	SpeedupWarm    float64                `json:"speedup_warm"` // cold indexed vs warm bundle
	// Steal carries the heavy-tail work-stealing leg's numbers into the
	// checked-in baseline (informational — the leg's hard invariants are
	// enforced inline on every run, never against these numbers, because
	// the exact steal instants depend on goroutine scheduling).
	Steal *StealReport `json:"steal,omitempty"`
}

// StoreStats is the bundle-store counter block of BENCH_service.json.
type StoreStats struct {
	Entries   int64 `json:"entries"`
	Bytes     int64 `json:"bytes"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Puts      int64 `json:"puts"`
	Evictions int64 `json:"evictions"`
	Drops     int64 `json:"drops"`
}

// ServiceReport is the BENCH_service.json schema: the batch-reuse leg —
// the same corpus submitted twice through one scheduler with an in-memory
// bundle store. The second pass must charge zero disassembly and zero
// index builds; its detection report must be bitwise identical to a plain
// experiments.RunCorpus pass.
type ServiceReport struct {
	Corpus            CorpusMeta  `json:"corpus"`
	FirstPass         BackendCost `json:"first_pass"`
	SecondPass        BackendCost `json:"second_pass"`
	Store             StoreStats  `json:"store"`
	SpeedupBatchReuse float64     `json:"speedup_batch_reuse"`
}

// TenantReport is the BENCH_tenant.json schema: the fair-dispatch leg. A
// heavy tenant floods the queue (its many-sink outlier first), a light
// tenant submits a handful of small apps afterwards, and one worker
// drains the whole thing under weighted round-robin — the worst case for
// head-of-line blocking. The gate pins two invariants: the light tenant's
// last job is dispatched within the fairness bound (for equal weights,
// slot 2*L+1 for L light jobs — alternation, not FIFO), and the journal's
// charged control-plane work stays under 5% of the analysis work.
type TenantReport struct {
	Seed            int64    `json:"seed"`
	HeavyJobs       int      `json:"heavy_jobs"`
	LightJobs       int      `json:"light_jobs"`
	DispatchOrder   []string `json:"dispatch_order"`
	LastLightSlot   int      `json:"last_light_slot"`
	FairnessBound   int      `json:"fairness_bound"`
	HeavyUnits      int64    `json:"heavy_units"`
	LightUnits      int64    `json:"light_units"`
	AnalysisUnits   int64    `json:"analysis_units"`
	JournalRecords  int64    `json:"journal_records"`
	JournalBytes    int64    `json:"journal_bytes"`
	JournalUnits    int64    `json:"journal_units"`
	JournalOverhead float64  `json:"journal_overhead"`
}

// DeltaLeg is one mutation kind's cold-vs-incremental measurement: the
// updated app analyzed from scratch versus re-analyzed against the base
// version's bundle and report.
type DeltaLeg struct {
	Mutation    string  `json:"mutation"`
	ColdUnits   int64   `json:"cold_work_units"`
	DeltaUnits  int64   `json:"delta_work_units"`
	CostRatio   float64 `json:"cost_ratio"` // delta / cold
	SinksReused int     `json:"sinks_reused"`
	SinksRerun  int     `json:"sinks_rerun"`
	ReusedLines int64   `json:"delta_reused_lines"`
}

// DeltaApp identifies the app pair the delta leg measures.
type DeltaApp struct {
	Name   string  `json:"name"`
	SizeMB float64 `json:"size_mb"`
	Seed   int64   `json:"seed"`
	Sinks  int     `json:"sinks"`
}

// DeltaReport is the BENCH_delta.json schema: the app-update leg. For
// each mutation kind the updated app is analyzed cold and incrementally
// (base bundle + base report as the delta base); verdicts must match bit
// for bit, and one-class updates must charge under 10% of cold.
type DeltaReport struct {
	App  DeltaApp   `json:"app"`
	Legs []DeltaLeg `json:"legs"`
}

// SettledStoreStats is the report-store counter block of
// BENCH_settled.json.
type SettledStoreStats struct {
	Entries   int64 `json:"entries"`
	Bytes     int64 `json:"bytes"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Puts      int64 `json:"puts"`
	Evictions int64 `json:"evictions"`
}

// SettledReport is the BENCH_settled.json schema: the resubmission-storm
// leg. One scheduler with a report store analyzes the corpus cold, then
// the same corpus is resubmitted StormPasses more times. The storm must
// be served entirely from the settled tier: every resubmission one O(1)
// settled lookup, zero disassembly, zero index builds, canonical report
// encodings bitwise identical to the cold pass — and the whole storm
// charging under 1% of the cold pass.
type SettledReport struct {
	Corpus         CorpusMeta        `json:"corpus"`
	StormPasses    int               `json:"storm_passes"`
	ColdPass       BackendCost       `json:"cold_pass"`
	Storm          BackendCost       `json:"storm_total"` // all resubmissions summed
	SettledLookups int64             `json:"settled_lookups"`
	Store          SettledStoreStats `json:"report_store"`
	ChargeRatio    float64           `json:"charge_ratio"`    // storm total / cold
	SpeedupSettled float64           `json:"speedup_settled"` // cold / mean storm pass
}

// FleetReport is the BENCH_fleet.json schema: the fleet-chaos leg. The
// tenant corpus runs twice through a four-node worker fleet — once
// uninterrupted (the reference) and once under a deterministic fault
// plan that kills two nodes mid-corpus, each while running a targeted
// heavy-tenant job. The gate pins three invariants: the chaos run's
// canonical per-job report union (service.EncodeReport bytes) is
// identical to the reference's, the light tenant's last first-attempt
// dispatch stays inside the 2L+1 WRR bound even while handoff
// re-dispatches compete for heavy slots, and the fleet's overhead
// account (lease-expiry detection latency + handoff + backoff) stays
// under 10% of the charged analysis work.
type FleetReport struct {
	Seed           int64   `json:"seed"`
	Nodes          int     `json:"nodes"`
	HeavyJobs      int     `json:"heavy_jobs"`
	LightJobs      int     `json:"light_jobs"`
	Plan           string  `json:"plan"`
	Killed         int     `json:"killed"`
	Survivors      int     `json:"survivors"`
	Handoffs       int64   `json:"handoffs"`
	ExpiredLeases  int64   `json:"expired_leases"`
	LostUnits      int64   `json:"lost_units"`
	OverheadUnits  int64   `json:"overhead_units"`
	AnalysisUnits  int64   `json:"analysis_units"`
	OverheadRatio  float64 `json:"overhead_ratio"`
	UnionIdentical bool    `json:"union_identical"`
	LastLightSlot  int     `json:"last_light_slot"`
	FairnessBound  int     `json:"fairness_bound"`
	JournalUnits   int64   `json:"journal_units"`
}

// StealReport is the BENCH_steal.json schema: the heavy-tail
// work-stealing leg. The appgen heavy-tail corpus (one 121-sink outlier
// dispatched first, then small apps) runs twice through a four-node
// fleet — sink-chunk stealing disabled (service.Config.SinkChunk < 0,
// the job is the placement unit) and enabled (the defaults). With job-level
// placement the outlier's node grinds alone long after the small apps
// drain; with stealing the idle nodes take over fenced chunks of its
// sink tail. The gate pins three invariants: the steal run's canonical
// per-job report union (service.EncodeReport bytes) is identical to
// the unsplit run's, the charged makespan shrinks by at least 1.5x,
// and the steal overhead stays under 10% of the charged analysis work.
type StealReport struct {
	Seed            int64   `json:"seed"`
	Nodes           int     `json:"nodes"`
	Apps            int     `json:"apps"`
	HeavySinks      int     `json:"heavy_sinks"`
	NoStealMakespan int64   `json:"nosteal_makespan_units"`
	StealMakespan   int64   `json:"steal_makespan_units"`
	SpeedupMakespan float64 `json:"speedup_makespan"`
	Steals          int64   `json:"steals"`
	StealVictims    int64   `json:"steal_victims"`
	StolenSinks     int64   `json:"stolen_sinks"`
	StealUnits      int64   `json:"steal_units"`
	AnalysisUnits   int64   `json:"analysis_units"`
	OverheadRatio   float64 `json:"steal_overhead_ratio"`
	UnionIdentical  bool    `json:"union_identical"`
	// Phases is the steal run's per-phase charged-unit breakdown — the
	// backslice histogram shows the outlier's sink tail split across
	// chunk re-anchored ranges. Informational, never gated.
	Phases map[string]obs.HistSnapshot `json:"phase_units,omitempty"`
}

// WarmReport is the BENCH_warm.json schema: the warm-path perf trajectory
// tracked in-repo. BaselineWarmUnits captures the checked-in baseline's
// warm cost at measurement time, so the speedup over the previous warm
// path (PR 2's index-only cache, initially) is recorded alongside the
// absolute numbers.
type WarmReport struct {
	Corpus            CorpusMeta  `json:"corpus"`
	Cold              BackendCost `json:"cold"`
	Warm              BackendCost `json:"warm"`
	SpeedupWarmVsCold float64     `json:"speedup_warm_vs_cold"`
	BaselineWarmUnits int64       `json:"baseline_warm_work_units,omitempty"`
	SpeedupVsBaseline float64     `json:"speedup_vs_baseline_warm,omitempty"`
}

func (r Report) check() error {
	if r.SpeedupIndexed <= 1 {
		return fmt.Errorf("index speedups over linear not >1: indexed %.2fx — the index backend charges more than the linear scan",
			r.SpeedupIndexed)
	}
	return nil
}

func (w WarmReport) check() error {
	switch {
	case w.Warm.IndexBuilds != 0:
		return fmt.Errorf("warm run built %d indexes, want 0 (persistent cache not hitting)", w.Warm.IndexBuilds)
	case w.Warm.DumpLinesCold != 0:
		return fmt.Errorf("warm run disassembled %d dump lines, want 0 (bundle dump section not hitting)", w.Warm.DumpLinesCold)
	case w.Warm.DumpCacheHits != w.Corpus.Apps:
		return fmt.Errorf("warm run loaded %d cached dumps, want %d (one per app)", w.Warm.DumpCacheHits, w.Corpus.Apps)
	case w.SpeedupWarmVsCold <= 1:
		return fmt.Errorf("warm speedup %.2fx not >1 — warm bundle runs charge more than cold", w.SpeedupWarmVsCold)
	}
	return nil
}

func (s ServiceReport) check() error {
	second := s.SecondPass
	switch {
	case second.IndexBuilds != 0:
		return fmt.Errorf("batch-reuse second pass built %d indexes, want 0 (bundle store not hitting)", second.IndexBuilds)
	case second.DumpLinesCold != 0:
		return fmt.Errorf("batch-reuse second pass disassembled %d lines, want 0", second.DumpLinesCold)
	case second.BundleStoreHits != s.Corpus.Apps:
		return fmt.Errorf("batch-reuse second pass hit the store %d times, want %d (one per app)", second.BundleStoreHits, s.Corpus.Apps)
	case s.SpeedupBatchReuse <= 1:
		return fmt.Errorf("batch-reuse speedup %.2fx not >1 — store reuse charges more than cold", s.SpeedupBatchReuse)
	}
	return nil
}

func (t TenantReport) check() error {
	if t.LastLightSlot > t.FairnessBound {
		return fmt.Errorf("light tenant's last job dispatched at slot %d, fairness bound is %d — heavy tenant head-of-line-blocks",
			t.LastLightSlot, t.FairnessBound)
	}
	if t.JournalOverhead >= 0.05 {
		return fmt.Errorf("journal overhead %.2f%% of charged units, ceiling is 5%%", 100*t.JournalOverhead)
	}
	return nil
}

func (f FleetReport) check() error {
	switch {
	case !f.UnionIdentical:
		return fmt.Errorf("fleet chaos run's report union diverges from the uninterrupted run")
	case f.Killed != 2:
		return fmt.Errorf("fault plan %q killed %d nodes, want 2", f.Plan, f.Killed)
	case f.Handoffs != 2:
		return fmt.Errorf("fleet chaos run handed off %d jobs, want 2 (one per killed node)", f.Handoffs)
	case f.LastLightSlot > f.FairnessBound:
		return fmt.Errorf("light tenant's last job dispatched at fleet slot %d, fairness bound is %d — handoffs starve the light tenant",
			f.LastLightSlot, f.FairnessBound)
	case f.OverheadRatio >= 0.10:
		return fmt.Errorf("fleet fault overhead %.2f%% of charged analysis units, ceiling is 10%%", 100*f.OverheadRatio)
	}
	return nil
}

func (d DeltaReport) check() error {
	for _, leg := range d.Legs {
		if leg.SinksReused == 0 {
			return fmt.Errorf("delta leg %q reused no sinks — incremental path not engaging", leg.Mutation)
		}
		if leg.DeltaUnits >= leg.ColdUnits {
			return fmt.Errorf("delta leg %q charged %d units, cold %d — incremental run costs more than cold",
				leg.Mutation, leg.DeltaUnits, leg.ColdUnits)
		}
		oneClass := leg.Mutation != appgen.MutateNewFlow.String()
		if oneClass && 10*leg.DeltaUnits >= leg.ColdUnits {
			return fmt.Errorf("delta leg %q charged %d units, over 10%% of the %d-unit cold run",
				leg.Mutation, leg.DeltaUnits, leg.ColdUnits)
		}
	}
	return nil
}

func (s SettledReport) check() error {
	switch want := int64(s.Corpus.Apps) * int64(s.StormPasses); {
	case s.Storm.IndexBuilds != 0:
		return fmt.Errorf("settled storm built %d indexes, want 0 (report store not serving)", s.Storm.IndexBuilds)
	case s.Storm.DumpLinesCold != 0:
		return fmt.Errorf("settled storm disassembled %d dump lines, want 0", s.Storm.DumpLinesCold)
	case s.SettledLookups != want:
		return fmt.Errorf("settled storm charged %d settled lookups, want %d (one per resubmission)", s.SettledLookups, want)
	case 100*s.Storm.WorkUnits >= s.ColdPass.WorkUnits:
		return fmt.Errorf("settled storm charged %d units, over 1%% of the %d-unit cold pass",
			s.Storm.WorkUnits, s.ColdPass.WorkUnits)
	}
	return nil
}

func (s StealReport) check() error {
	switch {
	case !s.UnionIdentical:
		return fmt.Errorf("heavy-tail steal run's report union diverges from the unsplit run")
	case s.Steals == 0:
		return fmt.Errorf("heavy-tail leg stole no chunks — sink-level stealing not engaging")
	case s.SpeedupMakespan < 1.5:
		return fmt.Errorf("heavy-tail makespan speedup %.2fx, floor is 1.5x (%d -> %d units)",
			s.SpeedupMakespan, s.NoStealMakespan, s.StealMakespan)
	case s.OverheadRatio >= 0.10:
		return fmt.Errorf("steal overhead %.2f%% of charged analysis units, ceiling is 10%%", 100*s.OverheadRatio)
	}
	return nil
}

// phaseRecorder folds core.Options.PhaseSpan callbacks into per-phase
// duration histograms. Recording is pure observation — PhaseSpan is
// fingerprint-neutral and charges nothing — and the power-of-two
// histograms are order-independent, so parallel workers snapshot
// identically for a given corpus.
type phaseRecorder struct {
	mu    sync.Mutex
	hists map[string]*obs.Histogram
}

// install points o.PhaseSpan at the recorder.
func (p *phaseRecorder) install(o *core.Options) {
	o.PhaseSpan = func(phase string, _ int, start, end int64) {
		p.mu.Lock()
		if p.hists == nil {
			p.hists = make(map[string]*obs.Histogram)
		}
		h := p.hists[phase]
		if h == nil {
			h = &obs.Histogram{}
			p.hists[phase] = h
		}
		p.mu.Unlock()
		h.Observe(end - start)
	}
}

// snapshot returns the recorded histograms keyed by phase name (nil when
// nothing fired, keeping the JSON field omitted).
func (p *phaseRecorder) snapshot() map[string]obs.HistSnapshot {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.hists) == 0 {
		return nil
	}
	out := make(map[string]obs.HistSnapshot, len(p.hists))
	for name, h := range p.hists {
		out[name] = h.Snapshot()
	}
	return out
}

// costOf is one app's charged search work.
func costOf(s core.Stats) BackendCost {
	return BackendCost{
		LinesScanned:    s.Search.LinesScanned,
		PostingsScanned: s.Search.PostingsScanned,
		IndexBuilds:     s.Search.IndexBuilds,
		IndexCacheHits:  s.Search.IndexCacheHits,
		DumpCacheHits:   s.DumpCacheHits,
		BundleStoreHits: s.BundleStoreHits,
		DumpLinesCold:   s.DumpLinesDisassembled,
		ForwardMemoHits: s.ForwardMemoHits,
		WorkUnits:       s.WorkUnits,
		SimMinutes:      s.SimMinutes,
	}
}

// add sums o's counters into c. Phases is informational and not summed.
func (c *BackendCost) add(o BackendCost) {
	c.LinesScanned += o.LinesScanned
	c.PostingsScanned += o.PostingsScanned
	c.IndexBuilds += o.IndexBuilds
	c.IndexCacheHits += o.IndexCacheHits
	c.DumpCacheHits += o.DumpCacheHits
	c.BundleStoreHits += o.BundleStoreHits
	c.DumpLinesCold += o.DumpLinesCold
	c.ForwardMemoHits += o.ForwardMemoHits
	c.WorkUnits += o.WorkUnits
	c.SimMinutes += o.SimMinutes
}

// detections is the deterministic detection summary of the reports (app,
// sink, verdict, values) that the parity checks compare.
func detections(reports ...*core.Report) string {
	var b strings.Builder
	for _, r := range reports {
		fmt.Fprintf(&b, "== %s ==\n", r.App)
		for _, sk := range r.Sinks {
			fmt.Fprintf(&b, "%s r=%v i=%v %v\n", sk.Call, sk.Reachable, sk.Insecure, sk.Values)
		}
	}
	return b.String()
}

// pass is one corpus run: the summed charged work, the detection summary
// and every app's report, in corpus order.
type pass struct {
	cost    BackendCost
	det     string
	reports []*core.Report
}

// runPass runs BackDroid over the corpus under cfg (possibly through a
// shared scheduler).
func runPass(cfg experiments.RunConfig) (pass, error) {
	run, err := experiments.RunCorpus(
		appgen.CorpusOptions{Apps: corpus.Apps, Seed: corpus.Seed, SizeScale: corpus.Scale}, cfg)
	if err != nil {
		return pass{}, err
	}
	var p pass
	for _, a := range run.Apps {
		p.cost.add(costOf(a.BackDroid.Stats))
		p.reports = append(p.reports, a.BackDroid)
	}
	p.det = detections(p.reports...)
	return p, nil
}

// backendPass runs the corpus on one search backend, with the persistent
// bundle cache in cacheDir ("" = none), recording per-phase histograms.
func backendPass(kind bcsearch.BackendKind, cacheDir string) (pass, error) {
	opts := core.DefaultOptions()
	opts.SearchBackend = kind
	var rec phaseRecorder
	rec.install(&opts)
	opts.IndexCacheDir = cacheDir
	p, err := runPass(experiments.RunConfig{
		RunBackDroid:     true,
		BackDroidOptions: &opts,
		Workers:          runtime.NumCPU(),
	})
	p.cost.Phases = rec.snapshot()
	return p, err
}

// search is the backend sweep: the corpus once per search backend, then
// twice on the indexed backend against one persistent bundle cache
// directory — the first pass populates it, the second must load every
// dump and index section.
func (b *bench) search() (report, error) {
	r := Report{Corpus: corpus, Backends: make(map[string]BackendCost), Steal: b.stealRep}
	dets := make(map[string]string)
	for _, kind := range []bcsearch.BackendKind{bcsearch.BackendLinear, bcsearch.BackendIndexed} {
		p, err := backendPass(kind, "")
		if err != nil {
			return nil, err
		}
		r.Backends[kind.String()] = p.cost
		dets[kind.String()] = p.det
		fmt.Fprintf(os.Stderr, "%-16s %10d units, %9d line-scans, %9d postings\n",
			kind, p.cost.WorkUnits, p.cost.LinesScanned, p.cost.PostingsScanned)
	}
	for name, det := range dets {
		if det != dets["linear"] {
			return nil, fmt.Errorf("backend %q detection output diverges from linear", name)
		}
	}

	cacheDir, err := os.MkdirTemp("", "benchgate-idx-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(cacheDir)
	cold, err := backendPass(bcsearch.BackendIndexed, cacheDir)
	if err != nil {
		return nil, err
	}
	warm, err := backendPass(bcsearch.BackendIndexed, cacheDir)
	if err != nil {
		return nil, err
	}
	if warm.det != dets["indexed"] {
		return nil, fmt.Errorf("warm bundle run changed the detection output")
	}
	r.WarmCache = warm.cost
	fmt.Fprintf(os.Stderr, "%-16s %10d units, %d index hits, %d dump hits, %d builds, %d lines disassembled\n",
		"warm", warm.cost.WorkUnits, warm.cost.IndexCacheHits, warm.cost.DumpCacheHits, warm.cost.IndexBuilds, warm.cost.DumpLinesCold)

	lin := r.Backends["linear"].WorkUnits
	if idx := r.Backends["indexed"].WorkUnits; idx > 0 {
		r.SpeedupIndexed = float64(lin) / float64(idx)
	}
	if warm.cost.WorkUnits > 0 {
		r.SpeedupWarm = float64(cold.cost.WorkUnits) / float64(warm.cost.WorkUnits)
	}
	b.searchRep, b.cold, b.det = r, cold.cost, dets["indexed"]
	return r, nil
}

// warm is the warm-path trajectory: the search leg's cold and warm bundle
// runs. The baseline's warm cost is read before any refresh, so the
// recorded speedup is against the previous warm path.
func (b *bench) warm() (report, error) {
	w := WarmReport{
		Corpus:            corpus,
		Cold:              b.cold,
		Warm:              b.searchRep.WarmCache,
		SpeedupWarmVsCold: b.searchRep.SpeedupWarm,
	}
	if b.cfg.baseline != "" {
		if base, err := readBaseline(b.cfg.baseline); err == nil && base.WarmCache.WorkUnits > 0 {
			w.BaselineWarmUnits = base.WarmCache.WorkUnits
			w.SpeedupVsBaseline = float64(base.WarmCache.WorkUnits) / float64(w.Warm.WorkUnits)
		}
	}
	fmt.Fprintf(os.Stderr, "%-16s warm vs cold %.2fx, vs baseline warm %.2fx\n",
		"warm-path", w.SpeedupWarmVsCold, w.SpeedupVsBaseline)
	return w, nil
}

// service is the batch-reuse leg: one scheduler with an unbounded
// in-memory bundle store, the same corpus submitted twice through it. The
// first pass is cold (every fingerprint misses the store and is built
// once); the second must be fully warm. Both must match the search leg's
// indexed detection output, which is also the scheduler-vs-RunCorpus
// parity diff.
func (b *bench) service() (report, error) {
	opts := core.DefaultOptions()
	sched := service.New(service.Config{
		Workers: runtime.NumCPU(),
		Options: &opts,
		Store:   service.NewBundleStore(0),
	})
	defer sched.Close()

	cfg := experiments.RunConfig{RunBackDroid: true, Scheduler: sched}
	first, err := runPass(cfg)
	if err != nil {
		return nil, err
	}
	second, err := runPass(cfg)
	if err != nil {
		return nil, err
	}
	if first.det != b.det || second.det != b.det {
		return nil, fmt.Errorf("scheduler runs changed the detection output vs RunCorpus")
	}
	s := ServiceReport{Corpus: corpus, FirstPass: first.cost, SecondPass: second.cost}
	m := series(sched.Metrics().Snapshot(), "backdroid_store_")
	s.Store = StoreStats{
		Entries: m("entries"), Bytes: m("bytes"), Hits: m("hits_total"),
		Misses: m("misses_total"), Puts: m("puts_total"), Evictions: m("evictions_total"),
		Drops: m("drops_total"),
	}
	if second.cost.WorkUnits > 0 {
		s.SpeedupBatchReuse = float64(first.cost.WorkUnits) / float64(second.cost.WorkUnits)
	}
	fmt.Fprintf(os.Stderr, "%-16s %10d units cold, %10d units warm, %d store hits\n",
		"batch-reuse", s.FirstPass.WorkUnits, s.SecondPass.WorkUnits, s.SecondPass.BundleStoreHits)
	return s, nil
}

// settled is the resubmission-storm leg: one scheduler with an unbounded
// report store, the corpus analyzed cold once and then resubmitted
// stormPasses more times. Every storm serving must carry the
// bitwise-identical canonical encoding of the cold pass's report (the
// content-address contract), and the only charged work in the storm is
// the O(1) settled lookup per resubmission.
func (b *bench) settled() (report, error) {
	opts := core.DefaultOptions()
	sched := service.New(service.Config{
		Workers: runtime.NumCPU(),
		Options: &opts,
		Reports: service.NewReportStore(0),
	})
	defer sched.Close()

	cfg := experiments.RunConfig{RunBackDroid: true, Scheduler: sched}
	cold, err := runPass(cfg)
	if err != nil {
		return nil, err
	}
	if cold.det != b.det {
		return nil, fmt.Errorf("settled-storm cold pass changed the detection output vs RunCorpus")
	}
	coldEnc := make([][]byte, len(cold.reports))
	for i, r := range cold.reports {
		if r.Stats.SettledLookups != 0 {
			return nil, fmt.Errorf("cold pass charged %d settled lookups for %s, want 0", r.Stats.SettledLookups, r.App)
		}
		coldEnc[i] = service.EncodeReport(r)
	}

	s := SettledReport{Corpus: corpus, StormPasses: stormPasses, ColdPass: cold.cost}
	for n := 1; n <= stormPasses; n++ {
		storm, err := runPass(cfg)
		if err != nil {
			return nil, err
		}
		if storm.det != b.det {
			return nil, fmt.Errorf("storm pass %d changed the detection output vs RunCorpus", n)
		}
		for i, r := range storm.reports {
			if !bytes.Equal(service.EncodeReport(r), coldEnc[i]) {
				return nil, fmt.Errorf("storm pass %d: canonical encoding of %s diverges from the cold pass", n, r.App)
			}
			s.SettledLookups += int64(r.Stats.SettledLookups)
		}
		s.Storm.add(storm.cost)
	}
	m := series(sched.Metrics().Snapshot(), "backdroid_reports_")
	s.Store = SettledStoreStats{
		Entries: m("entries"), Bytes: m("bytes"), Hits: m("hits_total"),
		Misses: m("misses_total"), Puts: m("puts_total"), Evictions: m("evictions_total"),
	}
	if cold.cost.WorkUnits > 0 {
		s.ChargeRatio = float64(s.Storm.WorkUnits) / float64(cold.cost.WorkUnits)
	}
	if s.Storm.WorkUnits > 0 {
		s.SpeedupSettled = float64(cold.cost.WorkUnits) * float64(stormPasses) / float64(s.Storm.WorkUnits)
	}
	fmt.Fprintf(os.Stderr, "%-16s %10d units cold, %10d units for %d storm passes (%.3f%%), %d settled lookups\n",
		"settled-storm", s.ColdPass.WorkUnits, s.Storm.WorkUnits, s.StormPasses, 100*s.ChargeRatio, s.SettledLookups)
	return s, nil
}

// series reads the unlabeled registry series named prefix+suffix; an
// absent series reads 0.
func series(snap obs.Snapshot, prefix string) func(suffix string) int64 {
	return func(suffix string) int64 {
		v, _ := snap.Get(prefix + suffix)
		return v
	}
}

// submitSpecs submits one engine job per spec, generating the app on the
// worker. Jobs are named tenant:spec-name, or spec-name with no tenant.
func submitSpecs(sched *service.Scheduler, tenant string, specs []appgen.Spec) ([]service.JobID, error) {
	ids := make([]service.JobID, 0, len(specs))
	for _, spec := range specs {
		name := spec.Name
		if tenant != "" {
			name = tenant + ":" + name
		}
		id, err := sched.Submit(service.Job{
			Name: name, Tenant: tenant,
			Source: func() (*apk.App, error) {
				app, _, err := appgen.Generate(spec)
				return app, err
			},
			RunBackDroid: true,
		})
		if err != nil {
			return nil, err
		}
		ids = append(ids, id)
	}
	return ids, nil
}

// collect waits for the jobs and returns each one's canonical report
// encoding (service.EncodeReport bytes) keyed by job name, and their
// summed charged analysis units.
func collect(sched *service.Scheduler, ids []service.JobID) (map[string][]byte, int64, error) {
	union := make(map[string][]byte, len(ids))
	var units int64
	for _, id := range ids {
		res, err := sched.Wait(id)
		if err != nil {
			return nil, 0, fmt.Errorf("job %d: %w", id, err)
		}
		units += res.BackDroid.Stats.WorkUnits
		union[res.Name] = service.EncodeReport(res.BackDroid)
	}
	return union, units, nil
}

// parkGates submits one gate job per worker and returns once every worker
// is running one. Each gate blocks until release is closed, so the jobs
// submitted meanwhile all queue before the first real dispatch, and the
// gates hold dispatch slots 1..workers.
func parkGates(sched *service.Scheduler, workers int, release <-chan struct{}) ([]service.JobID, error) {
	parked := make(chan struct{}, workers)
	ids := make([]service.JobID, 0, workers)
	for i := 0; i < workers; i++ {
		suffix := ""
		if i > 0 {
			suffix = strconv.Itoa(i)
		}
		id, err := sched.Submit(service.Job{
			Name: "gate" + suffix, Tenant: "zz-gate", // sorts last: never steals a WRR slot from real work
			Source: func() (*apk.App, error) {
				parked <- struct{}{}
				<-release
				app, _, err := appgen.Generate(appgen.Spec{
					Name: "com.gate.noop" + suffix, Seed: corpus.Seed + int64(i), SizeMB: 0.2,
					Sinks: []appgen.SinkSpec{{Flow: appgen.FlowDirect, Rule: android.RuleCryptoECB}},
				})
				return app, err
			},
			RunBackDroid: true,
		})
		if err != nil {
			return nil, err
		}
		ids = append(ids, id)
	}
	for range ids {
		<-parked
	}
	return ids, nil
}

// tenantCorpus is the two-tenant workload of the fair-dispatch and
// fleet-chaos legs: the heavy tenant's many-sink outlier then its small
// apps, and the light tenant's small apps.
func tenantCorpus() (heavy, light []appgen.Spec) {
	loads := appgen.TenantWorkloads(appgen.TenantWorkloadOptions{
		Tenants: 2, SmallApps: 4, Seed: corpus.Seed, HeavySinks: 40,
	})
	return loads[0].Specs, loads[1].Specs[1:]
}

// tenantRun is one pass of the two-tenant corpus through a gated
// scheduler.
type tenantRun struct {
	heavyUnits, lightUnits int64
	union                  map[string][]byte // job name -> service.EncodeReport bytes
	order                  []string          // first-attempt dispatch order, gates excluded
	lastLightSlot          int               // the light tenant's last first-attempt slot, gates excluded
	journalUnits           int64
	journal                journal.Stats
	fleet                  *service.FleetStats // nil without a fleet
}

// gatedTenantRun drives the heavy then the light tenant's specs through a
// journaled scheduler built from cfg (its Workers or Nodes). Every worker
// is first parked on a gate job, so the whole corpus queues before the
// first real WRR pop: the dispatch sequence is then a pure function of the
// queue contents, deterministic for a given seed even when several fleet
// nodes pull concurrently. The gates are released and the scheduler closed
// on every path.
func gatedTenantRun(cfg service.Config, heavy, light []appgen.Spec) (tenantRun, error) {
	var out tenantRun
	jdir, err := os.MkdirTemp("", "benchgate-journal-*")
	if err != nil {
		return out, err
	}
	defer os.RemoveAll(jdir)
	jnl, _, err := journal.Open(jdir)
	if err != nil {
		return out, err
	}
	defer jnl.Close()

	// The buffer only decouples the emitting workers from the drain below,
	// which keeps up; 256 covers every event of a pass several times over.
	events := make(chan service.Event, 256)
	var starts []service.Event
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for ev := range events {
			// First attempts only: a handoff re-dispatch is recovery, not
			// a fresh slot the light tenant competes for.
			if ev.Kind == service.EventStarted && ev.Attempt == 1 {
				starts = append(starts, ev)
			}
		}
	}()

	cfg.QueueDepth = 64
	opts := core.DefaultOptions()
	cfg.Options = &opts
	cfg.Journal = jnl
	cfg.Events = events
	sched := service.New(cfg)
	workers := max(cfg.Workers, cfg.Nodes, 1)

	release := make(chan struct{})
	gates, err := parkGates(sched, workers, release)
	var heavyIDs, lightIDs []service.JobID
	if err == nil {
		heavyIDs, err = submitSpecs(sched, "heavy", heavy)
	}
	if err == nil {
		lightIDs, err = submitSpecs(sched, "light", light)
	}
	close(release)
	var lightUnion map[string][]byte
	if err == nil {
		out.union, out.heavyUnits, err = collect(sched, heavyIDs)
	}
	if err == nil {
		lightUnion, out.lightUnits, err = collect(sched, lightIDs)
		maps.Copy(out.union, lightUnion)
	}
	if err == nil {
		_, _, err = collect(sched, gates)
	}
	if err == nil {
		out.journalUnits, _ = sched.Metrics().Snapshot().Get("backdroid_journal_units")
		out.journal = jnl.Stats()
		out.fleet = sched.FleetStats()
	}
	sched.Close()
	close(events)
	<-drained
	if err != nil {
		return out, err
	}

	slices.SortFunc(starts, func(a, b service.Event) int { return int(a.Seq - b.Seq) })
	for _, ev := range starts {
		if ev.Seq <= int64(workers) {
			continue // a gate
		}
		out.order = append(out.order, ev.Name)
		if strings.HasPrefix(ev.Name, "light:") {
			out.lastLightSlot = int(ev.Seq) - workers
		}
	}
	return out, nil
}

// tenant is the fair-dispatch leg: tenant "heavy" submits its full mixed
// workload (many-sink outlier first), tenant "light" its small apps
// afterwards, and one journaled worker drains both under weighted
// round-robin — the worst case for head-of-line blocking.
func (b *bench) tenant() (report, error) {
	heavy, light := tenantCorpus()
	run, err := gatedTenantRun(service.Config{Workers: 1}, heavy, light)
	if err != nil {
		return nil, err
	}
	t := TenantReport{
		Seed:          corpus.Seed,
		HeavyJobs:     len(heavy),
		LightJobs:     len(light),
		DispatchOrder: run.order,
		LastLightSlot: run.lastLightSlot,
		// Equal weights alternate once both tenants queue: light job i
		// lands by slot 2i, +1 slack for the round the cursor starts in.
		FairnessBound:  2*len(light) + 1,
		HeavyUnits:     run.heavyUnits,
		LightUnits:     run.lightUnits,
		AnalysisUnits:  run.heavyUnits + run.lightUnits,
		JournalRecords: run.journal.Records,
		JournalBytes:   run.journal.Bytes,
		JournalUnits:   run.journalUnits,
	}
	if t.AnalysisUnits > 0 {
		t.JournalOverhead = float64(t.JournalUnits) / float64(t.AnalysisUnits)
	}
	fmt.Fprintf(os.Stderr, "%-16s light done by slot %d/%d (bound %d), journal %.2f%% of %d units\n",
		"fair-dispatch", t.LastLightSlot, len(t.DispatchOrder), t.FairnessBound,
		100*t.JournalOverhead, t.AnalysisUnits)
	return t, nil
}

// fleet is the fleet-chaos leg: the tenant corpus through a four-node
// fleet, uninterrupted and under a fault plan that kills the node running
// the heavy tenant's outlier and the node running one of its small apps,
// each 64 charged units into the attempt. Both kills expire a lease,
// journal a handoff and re-dispatch onto a surviving node; the leg then
// compares the two runs' canonical report unions byte for byte.
func (b *bench) fleet() (report, error) {
	heavy, light := tenantCorpus()
	plan := faultinject.New(
		faultinject.Fault{Kind: faultinject.KillJob, Job: "heavy:" + heavy[0].Name, AtUnit: 64},
		faultinject.Fault{Kind: faultinject.KillJob, Job: "heavy:" + heavy[2].Name, AtUnit: 64},
	)
	ref, err := gatedTenantRun(service.Config{Nodes: fleetNodes, Store: service.NewBundleStore(0)}, heavy, light)
	if err != nil {
		return nil, err
	}
	chaos, err := gatedTenantRun(service.Config{Nodes: fleetNodes, Store: service.NewBundleStore(0), Faults: plan}, heavy, light)
	if err != nil {
		return nil, err
	}
	fs := chaos.fleet
	f := FleetReport{
		Seed: corpus.Seed, Nodes: fleetNodes, Plan: plan.String(),
		HeavyJobs: len(heavy), LightJobs: len(light),
		Killed:         fs.Killed,
		Survivors:      fs.Live,
		Handoffs:       fs.Handoffs,
		ExpiredLeases:  fs.ExpiredLeases,
		LostUnits:      fs.LostUnits,
		OverheadUnits:  fs.OverheadUnits,
		AnalysisUnits:  chaos.heavyUnits + chaos.lightUnits,
		UnionIdentical: maps.EqualFunc(ref.union, chaos.union, bytes.Equal),
		LastLightSlot:  chaos.lastLightSlot,
		FairnessBound:  2*len(light) + 1,
		JournalUnits:   chaos.journalUnits,
	}
	if f.AnalysisUnits > 0 {
		f.OverheadRatio = float64(f.OverheadUnits) / float64(f.AnalysisUnits)
	}
	fmt.Fprintf(os.Stderr, "%-16s %d/%d nodes killed, %d handoffs, overhead %.2f%% of %d units, light slot %d/%d\n",
		"fleet-chaos", f.Killed, f.Nodes, f.Handoffs,
		100*f.OverheadRatio, f.AnalysisUnits, f.LastLightSlot, f.FairnessBound)
	return f, nil
}

// stealTailRun drives the heavy-tail corpus through a fleet once, with
// sink-chunk stealing on or off, recording phase histograms into rec when
// it is non-nil. The outlier is submitted first — the worst case for
// job-level placement: its node commits to the whole sink tail before the
// small apps even queue.
func stealTailRun(specs []appgen.Spec, steal bool, rec *phaseRecorder) (map[string][]byte, int64, *service.FleetStats, error) {
	opts := core.DefaultOptions()
	if rec != nil {
		rec.install(&opts)
	}
	cfg := service.Config{
		Nodes:      fleetNodes,
		QueueDepth: 2 * len(specs),
		Options:    &opts,
		Store:      service.NewBundleStore(0),
	}
	if !steal {
		cfg.SinkChunk = -1 // job-level placement: the outlier is unsplittable
	}
	sched := service.New(cfg)
	ids, err := submitSpecs(sched, "", specs)
	var union map[string][]byte
	var units int64
	if err == nil {
		union, units, err = collect(sched, ids)
	}
	sched.Close()
	if err != nil {
		return nil, 0, nil, err
	}
	return union, units, sched.FleetStats(), nil
}

// steal is the heavy-tail work-stealing leg: the appgen heavy-tail corpus
// (one 121-sink outlier first, then small apps) through a four-node fleet
// with sink-chunk stealing off and on. The charged makespan — the busiest
// node's odometer — is the comparison: identical total work,
// redistributed across the idle tail.
func (b *bench) steal() (report, error) {
	specs := appgen.HeavyTailCorpus(appgen.HeavyTailOptions{Seed: corpus.Seed})
	baseUnion, _, baseStats, err := stealTailRun(specs, false, nil)
	if err != nil {
		return nil, err
	}
	if baseStats.Steals != 0 {
		return nil, fmt.Errorf("no-steal reference run stole %d chunks", baseStats.Steals)
	}
	var rec phaseRecorder
	union, analysisUnits, stats, err := stealTailRun(specs, true, &rec)
	if err != nil {
		return nil, err
	}
	if stats.Handoffs != 0 || stats.Killed != 0 {
		return nil, fmt.Errorf("undisturbed heavy-tail run saw failures: %d handoffs, %d nodes killed",
			stats.Handoffs, stats.Killed)
	}
	s := StealReport{
		Seed: corpus.Seed, Nodes: fleetNodes,
		Apps: len(specs), HeavySinks: len(specs[0].Sinks),
		NoStealMakespan: baseStats.MakespanUnits,
		StealMakespan:   stats.MakespanUnits,
		Steals:          stats.Steals,
		StealVictims:    stats.StealVictims,
		StolenSinks:     stats.StolenSinks,
		StealUnits:      stats.StealUnits,
		AnalysisUnits:   analysisUnits,
		UnionIdentical:  maps.EqualFunc(baseUnion, union, bytes.Equal),
		Phases:          rec.snapshot(),
	}
	if s.StealMakespan > 0 {
		s.SpeedupMakespan = float64(s.NoStealMakespan) / float64(s.StealMakespan)
	}
	if analysisUnits > 0 {
		// Everything stealing adds on top of the analysis itself: the
		// per-steal coordination charge.
		s.OverheadRatio = float64(s.StealUnits) / float64(analysisUnits)
	}
	b.stealRep = &s
	fmt.Fprintf(os.Stderr, "%-16s makespan %d -> %d units (%.2fx), %d steals off %d victims, %d sinks moved, overhead %.2f%%\n",
		"heavy-tail", s.NoStealMakespan, s.StealMakespan, s.SpeedupMakespan,
		s.Steals, s.StealVictims, s.StolenSinks, 100*s.OverheadRatio)
	return s, nil
}

// delta is the delta-update leg: one moderately sized app and its three
// mutation kinds. Per kind, the updated app is analyzed cold in a fresh
// store (the reference) and incrementally after the base version on one
// scheduler, which supplies the base bundle + report as the delta base.
// Fails when any incremental run's detection output diverges from its
// cold reference.
func (b *bench) delta() (report, error) {
	seed := corpus.Seed
	spec := appgen.Spec{
		Name:   "com.bench.delta",
		Seed:   seed,
		SizeMB: 4,
		Sinks: []appgen.SinkSpec{
			{Flow: appgen.FlowDirect, Rule: android.RuleCryptoECB, Insecure: true},
			{Flow: appgen.FlowThread, Rule: android.RuleSSLAllowAll, Insecure: true},
			{Flow: appgen.FlowICC, Rule: android.RuleCryptoECB},
			{Flow: appgen.FlowClinit, Rule: android.RuleCryptoECB, Insecure: true},
			{Flow: appgen.FlowCallback, Rule: android.RuleSSLAllowAll},
		},
	}
	d := DeltaReport{App: DeltaApp{Name: spec.Name, SizeMB: spec.SizeMB, Seed: seed, Sinks: len(spec.Sinks)}}

	// analyze runs the versions in order as one job name on a one-worker
	// scheduler with its own store and returns the last one's report;
	// every version after the first takes the scheduler's delta path
	// against its predecessor.
	analyze := func(versions ...*apk.App) (rep *core.Report, err error) {
		sched := service.New(service.Config{Workers: 1, Store: service.NewBundleStore(0)})
		defer sched.Close()
		for _, app := range versions {
			id, err := sched.Submit(service.Job{
				Name:         spec.Name,
				Source:       func() (*apk.App, error) { return app, nil },
				RunBackDroid: true,
			})
			if err != nil {
				return nil, err
			}
			res, err := sched.Wait(id)
			if err != nil {
				return nil, err
			}
			rep = res.BackDroid
		}
		return rep, nil
	}

	for _, m := range appgen.Mutations() {
		upd, _, err := appgen.GenerateUpdate(appgen.AppUpdateSpec{
			Base: spec, Mutation: m, TargetSink: 0, Seed: seed + 1,
		})
		if err != nil {
			return nil, err
		}

		// Cold reference: the update alone, so nothing warms it.
		cold, err := analyze(upd)
		if err != nil {
			return nil, err
		}

		// Incremental chain: the base populates the store, then the
		// update re-analyzes against the base bundle + report.
		base, _, err := appgen.Generate(spec)
		if err != nil {
			return nil, err
		}
		delta, err := analyze(base, upd)
		if err != nil {
			return nil, err
		}
		if !delta.Stats.DeltaRun() {
			return nil, fmt.Errorf("delta leg %q: the update did not take the delta path", m)
		}
		if got, want := detections(delta), detections(cold); got != want {
			return nil, fmt.Errorf("delta leg %q: incremental detection output diverges from cold:\n%svs\n%s", m, got, want)
		}

		ds, cs := delta.Stats, cold.Stats
		leg := DeltaLeg{
			Mutation:    m.String(),
			ColdUnits:   cs.WorkUnits,
			DeltaUnits:  ds.WorkUnits,
			SinksReused: ds.SinksReused,
			SinksRerun:  ds.SinksRerun,
			ReusedLines: ds.DeltaReusedLines,
		}
		if cs.WorkUnits > 0 {
			leg.CostRatio = float64(ds.WorkUnits) / float64(cs.WorkUnits)
		}
		d.Legs = append(d.Legs, leg)
		fmt.Fprintf(os.Stderr, "%-16s %10d units cold, %10d units delta (%.1f%%), %d/%d sinks reused\n",
			"delta:"+leg.Mutation, leg.ColdUnits, leg.DeltaUnits, 100*leg.CostRatio,
			leg.SinksReused, leg.SinksReused+leg.SinksRerun)
	}
	return d, nil
}

// readBaseline parses a baseline report file.
func readBaseline(path string) (Report, error) {
	var base Report
	data, err := os.ReadFile(path)
	if err != nil {
		return base, err
	}
	err = json.Unmarshal(data, &base)
	return base, err
}

// gate compares the run against the baseline and fails on charged-work
// regressions beyond the tolerance.
func gate(got Report, baselinePath string, tol float64) error {
	base, err := readBaseline(baselinePath)
	if err != nil {
		return fmt.Errorf("reading baseline %s: %w (run with -write-baseline to create it)", baselinePath, err)
	}
	if base.Corpus != got.Corpus {
		return fmt.Errorf("baseline measured corpus %+v, this run %+v — not comparable", base.Corpus, got.Corpus)
	}
	var failures []string
	check := func(name, metric string, cur, old int64) {
		if old <= 0 {
			return
		}
		limit := float64(old) * (1 + tol)
		switch {
		case float64(cur) > limit:
			failures = append(failures, fmt.Sprintf(
				"%s %s regressed: %d -> %d (+%.1f%%, limit +%.0f%%)",
				name, metric, old, cur, 100*float64(cur-old)/float64(old), 100*tol))
		case cur < old:
			fmt.Fprintf(os.Stderr, "note: %s %s improved: %d -> %d (-%.1f%%); consider refreshing the baseline\n",
				name, metric, old, cur, 100*float64(old-cur)/float64(old))
		}
	}
	for name, old := range base.Backends {
		cur, ok := got.Backends[name]
		if !ok {
			failures = append(failures, fmt.Sprintf("backend %q in baseline but not measured", name))
			continue
		}
		check(name, "work_units", cur.WorkUnits, old.WorkUnits)
		check(name, "lines_scanned", cur.LinesScanned, old.LinesScanned)
	}
	check("warm-cache", "work_units", got.WarmCache.WorkUnits, base.WarmCache.WorkUnits)
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "REGRESSION:", f)
		}
		return fmt.Errorf("%d charged-work regression(s) vs %s", len(failures), baselinePath)
	}
	fmt.Fprintln(os.Stderr, "bench gate passed: no charged-work regressions")
	return nil
}
