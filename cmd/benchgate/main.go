// Command benchgate is the CI bench-regression gate for the bytecode
// search stack. It analyzes the scaled benchmark corpus once per search
// backend (linear, indexed, sharded), cold+warm against the persistent
// bundle cache, and twice through the batch service scheduler with an
// in-memory bundle store; emits the charged-work measurements as JSON
// (BENCH_search.json, the warm-path trajectory BENCH_warm.json and the
// batch-reuse leg BENCH_service.json), and fails when charged work
// regresses beyond the tolerance against a checked-in baseline.
//
// Hard invariants enforced on every run, baseline or not:
//   - index backends must beat the linear scan (speedup > 1);
//   - a warm run must charge zero index builds AND zero disassembly
//     (every app loads both bundle sections);
//   - every backend and the warm bundle run must reproduce the linear
//     scan's detection output bit for bit;
//   - the batch-reuse second pass must charge zero index builds and zero
//     disassembly (every app a bundle-store hit), beat the first pass,
//     and both scheduler passes must reproduce the plain RunCorpus
//     detection output bit for bit;
//   - the delta-update leg (BENCH_delta.json) must reproduce the cold
//     detection output for every mutation kind, a one-class update
//     (change-literal, add-class) must charge under 10% of its cold
//     re-analysis, and the shard store must dedup postings bytes across
//     the two versions;
//   - the settled-storm leg (BENCH_settled.json): the corpus is analyzed
//     cold once through a scheduler with a report store, then resubmitted
//     ten more times. Every storm pass must be served entirely from the
//     settled tier — zero disassembly, zero index builds, one settled
//     lookup per app — with canonical report encodings bitwise identical
//     to the cold pass, and the whole storm must charge under 1% of the
//     cold pass;
//   - the fleet-chaos leg (BENCH_fleet.json): the tenant corpus runs
//     twice through a 4-node worker fleet — uninterrupted, and under a
//     deterministic fault plan that kills two nodes mid-corpus. The
//     chaos run's canonical per-job report union must be byte-identical
//     to the uninterrupted run's, the light tenant must still dispatch
//     inside the WRR fairness bound while handoff re-dispatches compete
//     for slots, and the failure-detection + handoff + backoff overhead
//     must stay under 10% of the charged analysis work;
//   - the heavy-tail leg (BENCH_steal.json): the work-stealing corpus —
//     one 121-sink outlier submitted first, then small apps — runs twice
//     through a 4-node fleet, with sink-chunk stealing off (SinkChunk=0)
//     and on (the defaults). The steal run's per-job report union must
//     be byte-identical to the unsplit run's, the charged makespan (the
//     busiest node's odometer) must shrink by at least 1.5x, and the
//     steal + remote-fetch overhead must stay under 10% of the charged
//     analysis work.
//
// Usage:
//
//	benchgate [-apps N] [-scale F] [-seed N] [-baseline FILE] [-out FILE]
//	          [-warm-out FILE] [-service-out FILE] [-tenant-out FILE]
//	          [-delta-out FILE] [-settled-out FILE] [-fleet-out FILE]
//	          [-steal-out FILE] [-tolerance F] [-write-baseline]
//
// Charged work is simulated time (deterministic for a given corpus), so
// the gate is immune to runner noise: a regression means the search stack
// really does more work, not that the CI machine was slow. The tolerance
// (default 10%) only absorbs deliberate cost-model recalibrations.
// Improvements are reported but do not fail the gate; refresh the
// baseline with -write-baseline when they should become the new floor.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"

	"backdroid/internal/android"
	"backdroid/internal/apk"
	"backdroid/internal/appgen"
	"backdroid/internal/bcsearch"
	"backdroid/internal/core"
	"backdroid/internal/dexdump"
	"backdroid/internal/experiments"
	"backdroid/internal/faultinject"
	"backdroid/internal/obs"
	"backdroid/internal/service"
	"backdroid/internal/service/journal"
)

// BackendCost is the charged search work of one corpus run, summed over
// all apps. Deterministic for a given corpus and backend.
type BackendCost struct {
	LinesScanned    int64   `json:"lines_scanned"`
	PostingsScanned int64   `json:"postings_scanned"`
	MergedPostings  int64   `json:"merged_postings"`
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
	WarmCache      BackendCost            `json:"warm_cache"` // sharded backend, pre-warmed bundle cache
	SpeedupIndexed float64                `json:"speedup_indexed"`
	SpeedupSharded float64                `json:"speedup_sharded"`
	SpeedupWarm    float64                `json:"speedup_warm"` // cold sharded vs warm bundle
	// Steal carries the heavy-tail work-stealing leg's numbers into the
	// checked-in baseline (informational — the leg's hard invariants are
	// enforced inline on every run, never against these numbers, because
	// the exact steal instants depend on goroutine scheduling).
	Steal *StealReport `json:"steal,omitempty"`
}

// StoreStats is the bundle-store counter block of BENCH_service.json.
type StoreStats struct {
	Entries   int   `json:"entries"`
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
	Mutation        string  `json:"mutation"`
	ColdUnits       int64   `json:"cold_work_units"`
	DeltaUnits      int64   `json:"delta_work_units"`
	CostRatio       float64 `json:"cost_ratio"` // delta / cold
	SinksReused     int     `json:"sinks_reused"`
	SinksRerun      int     `json:"sinks_rerun"`
	ShardsUnchanged int     `json:"shards_unchanged"`
	ShardsChanged   int     `json:"shards_changed"`
	ReusedLines     int64   `json:"delta_reused_lines"`
}

// ShardDedup is the cross-version postings-dedup counter block of
// BENCH_delta.json, accumulated over every base/update bundle pair the
// leg stored.
type ShardDedup struct {
	Entries      int   `json:"entries"`
	Bytes        int64 `json:"bytes"`
	Puts         int64 `json:"puts"`
	Hits         int64 `json:"hits"`
	BytesDeduped int64 `json:"bytes_deduped"`
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
// for bit, one-class updates must charge under 10% of cold, and the
// shard store must share unchanged postings shards across the versions.
type DeltaReport struct {
	App        DeltaApp   `json:"app"`
	Legs       []DeltaLeg `json:"legs"`
	ShardStore ShardDedup `json:"shard_store"`
}

// SettledStoreStats is the report-store counter block of
// BENCH_settled.json.
type SettledStoreStats struct {
	Entries   int   `json:"entries"`
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
// fleet — sink-chunk stealing disabled (SinkChunk=0, the job is the
// placement unit) and enabled (the default options). With job-level
// placement the outlier's node grinds alone long after the small apps
// drain; with stealing the idle nodes take over fenced chunks of its
// sink tail. The gate pins three invariants: the steal run's canonical
// per-job report union (service.EncodeReport bytes) is identical to
// the unsplit run's, the charged makespan shrinks by at least 1.5x,
// and the steal + remote-fetch overhead stays under 10% of the charged
// analysis work.
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
	RemoteGets      int64   `json:"remote_gets"`
	RemoteUnits     int64   `json:"remote_units"`
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
	ColdSharded       BackendCost `json:"cold_sharded"`
	Warm              BackendCost `json:"warm"`
	SpeedupWarmVsCold float64     `json:"speedup_warm_vs_cold"`
	BaselineWarmUnits int64       `json:"baseline_warm_work_units,omitempty"`
	SpeedupVsBaseline float64     `json:"speedup_vs_baseline_warm,omitempty"`
}

func main() {
	var (
		apps       = flag.Int("apps", 16, "corpus size")
		scale      = flag.Float64("scale", 0.15, "app size scale factor")
		seed       = flag.Int64("seed", 20200523, "corpus seed")
		baseline   = flag.String("baseline", "", "baseline JSON to gate against (empty = no gate)")
		out        = flag.String("out", "BENCH_search.json", "output JSON path")
		warmOut    = flag.String("warm-out", "BENCH_warm.json", "warm-path trajectory JSON path (empty = skip)")
		serviceOut = flag.String("service-out", "BENCH_service.json", "batch-reuse leg JSON path (empty = skip)")
		tenantOut  = flag.String("tenant-out", "BENCH_tenant.json", "fair-dispatch leg JSON path (empty = skip)")
		deltaOut   = flag.String("delta-out", "BENCH_delta.json", "delta-update leg JSON path (empty = skip)")
		settledOut = flag.String("settled-out", "BENCH_settled.json", "settled-storm leg JSON path (empty = skip)")
		fleetOut   = flag.String("fleet-out", "BENCH_fleet.json", "fleet-chaos leg JSON path (empty = skip)")
		stealOut   = flag.String("steal-out", "BENCH_steal.json", "heavy-tail work-stealing leg JSON path (empty = skip)")
		tolerance  = flag.Float64("tolerance", 0.10, "allowed charged-work regression fraction")
		write      = flag.Bool("write-baseline", false, "overwrite the baseline with this run's numbers")
	)
	flag.Parse()
	if err := run(*apps, *scale, *seed, *baseline, *out, *warmOut, *serviceOut, *tenantOut, *deltaOut, *settledOut, *fleetOut, *stealOut, *tolerance, *write); err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(1)
	}
}

func run(apps int, scale float64, seed int64, baselinePath, outPath, warmOutPath, serviceOutPath, tenantOutPath, deltaOutPath, settledOutPath, fleetOutPath, stealOutPath string, tolerance float64, writeBaseline bool) error {
	meta := CorpusMeta{Apps: apps, Scale: scale, Seed: seed}
	report := Report{Corpus: meta, Backends: make(map[string]BackendCost)}

	detections := make(map[string]string)
	for _, kind := range []bcsearch.BackendKind{bcsearch.BackendLinear, bcsearch.BackendIndexed, bcsearch.BackendSharded} {
		cost, det, err := measure(meta, kind, "")
		if err != nil {
			return err
		}
		report.Backends[kind.String()] = cost
		detections[kind.String()] = det
		fmt.Fprintf(os.Stderr, "%-16s %10d units, %9d line-scans, %9d postings\n",
			kind, cost.WorkUnits, cost.LinesScanned, cost.PostingsScanned)
	}

	for name, det := range detections {
		if det != detections["linear"] {
			return fmt.Errorf("backend %q detection output diverges from linear", name)
		}
	}

	// Warm persistent-bundle runs: the first pass populates the cache
	// directory, the second must load every dump and index section.
	cacheDir, err := os.MkdirTemp("", "benchgate-idx-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(cacheDir)
	coldSharded, _, err := measure(meta, bcsearch.BackendSharded, cacheDir)
	if err != nil {
		return err
	}
	warm, warmDet, err := measure(meta, bcsearch.BackendSharded, cacheDir)
	if err != nil {
		return err
	}
	report.WarmCache = warm
	fmt.Fprintf(os.Stderr, "%-16s %10d units, %d index hits, %d dump hits, %d builds, %d lines disassembled\n",
		"warm", warm.WorkUnits, warm.IndexCacheHits, warm.DumpCacheHits, warm.IndexBuilds, warm.DumpLinesCold)

	lin := report.Backends["linear"].WorkUnits
	if idx := report.Backends["indexed"].WorkUnits; idx > 0 {
		report.SpeedupIndexed = float64(lin) / float64(idx)
	}
	if sh := report.Backends["sharded"].WorkUnits; sh > 0 {
		report.SpeedupSharded = float64(lin) / float64(sh)
	}
	if warm.WorkUnits > 0 {
		report.SpeedupWarm = float64(coldSharded.WorkUnits) / float64(warm.WorkUnits)
	}

	// Heavy-tail work-stealing leg. Measured before the main report is
	// marshaled so its numbers ride into BENCH_search.json and the
	// checked-in baseline; the artifact is written before the gates fire
	// so a failing run still leaves the evidence behind.
	if stealOutPath != "" {
		sr, err := measureStealTail(seed)
		if err != nil {
			return err
		}
		report.Steal = &sr
		fmt.Fprintf(os.Stderr, "%-16s makespan %d -> %d units (%.2fx), %d steals off %d victims, %d sinks moved, overhead %.2f%%\n",
			"heavy-tail", sr.NoStealMakespan, sr.StealMakespan, sr.SpeedupMakespan,
			sr.Steals, sr.StealVictims, sr.StolenSinks, 100*sr.OverheadRatio)
		sdata, err := json.MarshalIndent(sr, "", "  ")
		if err != nil {
			return err
		}
		sdata = append(sdata, '\n')
		if err := os.WriteFile(stealOutPath, sdata, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s (makespan %.2fx)\n", stealOutPath, sr.SpeedupMakespan)
		if !sr.UnionIdentical {
			return fmt.Errorf("heavy-tail steal run's report union diverges from the unsplit run")
		}
		if sr.Steals == 0 {
			return fmt.Errorf("heavy-tail leg stole no chunks — sink-level stealing not engaging")
		}
		if sr.SpeedupMakespan < 1.5 {
			return fmt.Errorf("heavy-tail makespan speedup %.2fx, floor is 1.5x (%d -> %d units)",
				sr.SpeedupMakespan, sr.NoStealMakespan, sr.StealMakespan)
		}
		if sr.OverheadRatio >= 0.10 {
			return fmt.Errorf("steal overhead %.2f%% of charged analysis units, ceiling is 10%%", 100*sr.OverheadRatio)
		}
	}

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(outPath, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s (speedup indexed %.2fx, sharded %.2fx, warm %.2fx)\n",
		outPath, report.SpeedupIndexed, report.SpeedupSharded, report.SpeedupWarm)

	// Invariants the gate always enforces, baseline or not.
	if warm.IndexBuilds != 0 {
		return fmt.Errorf("warm run built %d indexes, want 0 (persistent cache not hitting)", warm.IndexBuilds)
	}
	if warm.DumpLinesCold != 0 {
		return fmt.Errorf("warm run disassembled %d dump lines, want 0 (bundle dump section not hitting)", warm.DumpLinesCold)
	}
	if warm.DumpCacheHits != apps {
		return fmt.Errorf("warm run loaded %d cached dumps, want %d (one per app)", warm.DumpCacheHits, apps)
	}
	if warmDet != detections["sharded"] {
		return fmt.Errorf("warm bundle run changed the detection output")
	}
	if report.SpeedupIndexed <= 1 || report.SpeedupSharded <= 1 {
		return fmt.Errorf("index speedups %.2fx/%.2fx not >1 — index backends charge more than the linear scan",
			report.SpeedupIndexed, report.SpeedupSharded)
	}
	if report.SpeedupWarm <= 1 {
		return fmt.Errorf("warm speedup %.2fx not >1 — warm bundle runs charge more than cold", report.SpeedupWarm)
	}

	// Batch-reuse leg: the same corpus submitted twice through one
	// scheduler with an in-memory bundle store. This is also the
	// scheduler-vs-RunCorpus parity diff — both passes must reproduce the
	// plain sharded detection output bit for bit.
	if serviceOutPath != "" {
		svc, firstDet, secondDet, err := measureService(meta)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "%-16s %10d units cold, %10d units warm, %d store hits\n",
			"batch-reuse", svc.FirstPass.WorkUnits, svc.SecondPass.WorkUnits, svc.SecondPass.BundleStoreHits)
		if firstDet != detections["sharded"] || secondDet != detections["sharded"] {
			return fmt.Errorf("scheduler runs changed the detection output vs RunCorpus")
		}
		if svc.SecondPass.IndexBuilds != 0 {
			return fmt.Errorf("batch-reuse second pass built %d indexes, want 0 (bundle store not hitting)", svc.SecondPass.IndexBuilds)
		}
		if svc.SecondPass.DumpLinesCold != 0 {
			return fmt.Errorf("batch-reuse second pass disassembled %d lines, want 0", svc.SecondPass.DumpLinesCold)
		}
		if svc.SecondPass.BundleStoreHits != apps {
			return fmt.Errorf("batch-reuse second pass hit the store %d times, want %d (one per app)", svc.SecondPass.BundleStoreHits, apps)
		}
		if svc.SpeedupBatchReuse <= 1 {
			return fmt.Errorf("batch-reuse speedup %.2fx not >1 — store reuse charges more than cold", svc.SpeedupBatchReuse)
		}
		sdata, err := json.MarshalIndent(svc, "", "  ")
		if err != nil {
			return err
		}
		sdata = append(sdata, '\n')
		if err := os.WriteFile(serviceOutPath, sdata, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s (batch reuse %.2fx)\n", serviceOutPath, svc.SpeedupBatchReuse)
	}

	// Fair-dispatch leg: a heavy tenant's backlog vs a light tenant's
	// trickle through one journaled scheduler. Enforces the fairness
	// bound and the journal-overhead ceiling on every run.
	if tenantOutPath != "" {
		tr, err := measureFairDispatch(seed)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "%-16s light done by slot %d/%d (bound %d), journal %.2f%% of %d units\n",
			"fair-dispatch", tr.LastLightSlot, len(tr.DispatchOrder), tr.FairnessBound,
			100*tr.JournalOverhead, tr.AnalysisUnits)
		if tr.LastLightSlot > tr.FairnessBound {
			return fmt.Errorf("light tenant's last job dispatched at slot %d, fairness bound is %d — heavy tenant head-of-line-blocks",
				tr.LastLightSlot, tr.FairnessBound)
		}
		if tr.JournalOverhead >= 0.05 {
			return fmt.Errorf("journal overhead %.2f%% of charged units, ceiling is 5%%", 100*tr.JournalOverhead)
		}
		tdata, err := json.MarshalIndent(tr, "", "  ")
		if err != nil {
			return err
		}
		tdata = append(tdata, '\n')
		if err := os.WriteFile(tenantOutPath, tdata, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", tenantOutPath)
	}

	// Fleet-chaos leg: the tenant corpus through a 4-node fleet, with and
	// without a deterministic fault plan killing two nodes mid-corpus.
	// Enforces report-union byte parity, the fairness bound under
	// re-dispatch pressure and the 10% overhead ceiling on every run.
	if fleetOutPath != "" {
		fr, err := measureFleetChaos(seed)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "%-16s %d/%d nodes killed, %d handoffs, overhead %.2f%% of %d units, light slot %d/%d\n",
			"fleet-chaos", fr.Killed, fr.Nodes, fr.Handoffs,
			100*fr.OverheadRatio, fr.AnalysisUnits, fr.LastLightSlot, fr.FairnessBound)
		if !fr.UnionIdentical {
			return fmt.Errorf("fleet chaos run's report union diverges from the uninterrupted run")
		}
		if fr.Killed != 2 {
			return fmt.Errorf("fault plan %q killed %d nodes, want 2", fr.Plan, fr.Killed)
		}
		if fr.Handoffs != 2 {
			return fmt.Errorf("fleet chaos run handed off %d jobs, want 2 (one per killed node)", fr.Handoffs)
		}
		if fr.LastLightSlot > fr.FairnessBound {
			return fmt.Errorf("light tenant's last job dispatched at fleet slot %d, fairness bound is %d — handoffs starve the light tenant",
				fr.LastLightSlot, fr.FairnessBound)
		}
		if fr.OverheadRatio >= 0.10 {
			return fmt.Errorf("fleet fault overhead %.2f%% of charged analysis units, ceiling is 10%%", 100*fr.OverheadRatio)
		}
		fdata, err := json.MarshalIndent(fr, "", "  ")
		if err != nil {
			return err
		}
		fdata = append(fdata, '\n')
		if err := os.WriteFile(fleetOutPath, fdata, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", fleetOutPath)
	}

	// Delta-update leg: each mutation kind's updated app analyzed cold
	// and incrementally against the base version's bundle + report. The
	// gate pins verdict parity for every kind, the <10% charge ceiling
	// for one-class updates, and cross-version shard dedup.
	if deltaOutPath != "" {
		dr, err := measureDelta(seed)
		if err != nil {
			return err
		}
		for _, leg := range dr.Legs {
			fmt.Fprintf(os.Stderr, "%-16s %10d units cold, %10d units delta (%.1f%%), %d/%d sinks reused, %d/%d shards unchanged\n",
				"delta:"+leg.Mutation, leg.ColdUnits, leg.DeltaUnits, 100*leg.CostRatio,
				leg.SinksReused, leg.SinksReused+leg.SinksRerun,
				leg.ShardsUnchanged, leg.ShardsUnchanged+leg.ShardsChanged)
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
		if dr.ShardStore.BytesDeduped == 0 {
			return fmt.Errorf("delta leg deduped no postings bytes across versions — shard store not sharing")
		}
		ddata, err := json.MarshalIndent(dr, "", "  ")
		if err != nil {
			return err
		}
		ddata = append(ddata, '\n')
		if err := os.WriteFile(deltaOutPath, ddata, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s (%d bytes postings deduped across versions)\n",
			deltaOutPath, dr.ShardStore.BytesDeduped)
	}

	// Settled-storm leg: the corpus analyzed cold through a scheduler with
	// a report store, then resubmitted ten more times. The storm must ride
	// the settled tier end to end — O(1) lookups, bitwise-identical
	// canonical reports — and charge under 1% of the cold pass.
	if settledOutPath != "" {
		const stormPasses = 10
		sr, coldDet, stormDet, err := measureSettledStorm(meta, stormPasses)
		if err != nil {
			return err
		}
		if coldDet != detections["sharded"] || stormDet != detections["sharded"] {
			return fmt.Errorf("settled-storm leg changed the detection output vs RunCorpus")
		}
		fmt.Fprintf(os.Stderr, "%-16s %10d units cold, %10d units for %d storm passes (%.3f%%), %d settled lookups\n",
			"settled-storm", sr.ColdPass.WorkUnits, sr.Storm.WorkUnits, sr.StormPasses,
			100*sr.ChargeRatio, sr.SettledLookups)
		if sr.Storm.IndexBuilds != 0 {
			return fmt.Errorf("settled storm built %d indexes, want 0 (report store not serving)", sr.Storm.IndexBuilds)
		}
		if sr.Storm.DumpLinesCold != 0 {
			return fmt.Errorf("settled storm disassembled %d dump lines, want 0", sr.Storm.DumpLinesCold)
		}
		if want := int64(apps) * int64(stormPasses); sr.SettledLookups != want {
			return fmt.Errorf("settled storm charged %d settled lookups, want %d (one per resubmission)",
				sr.SettledLookups, want)
		}
		if 100*sr.Storm.WorkUnits >= sr.ColdPass.WorkUnits {
			return fmt.Errorf("settled storm charged %d units, over 1%% of the %d-unit cold pass",
				sr.Storm.WorkUnits, sr.ColdPass.WorkUnits)
		}
		sdata, err := json.MarshalIndent(sr, "", "  ")
		if err != nil {
			return err
		}
		sdata = append(sdata, '\n')
		if err := os.WriteFile(settledOutPath, sdata, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s (settled serving %.0fx cheaper per pass)\n",
			settledOutPath, sr.SpeedupSettled)
	}

	// The warm-path trajectory artifact. The baseline's warm cost is read
	// before any refresh, so the recorded speedup is against the previous
	// PR's warm path.
	if warmOutPath != "" {
		wr := WarmReport{
			Corpus:            meta,
			ColdSharded:       coldSharded,
			Warm:              warm,
			SpeedupWarmVsCold: report.SpeedupWarm,
		}
		if baselinePath != "" {
			if base, err := readBaseline(baselinePath); err == nil && base.WarmCache.WorkUnits > 0 {
				wr.BaselineWarmUnits = base.WarmCache.WorkUnits
				wr.SpeedupVsBaseline = float64(base.WarmCache.WorkUnits) / float64(warm.WorkUnits)
			}
		}
		wdata, err := json.MarshalIndent(wr, "", "  ")
		if err != nil {
			return err
		}
		wdata = append(wdata, '\n')
		if err := os.WriteFile(warmOutPath, wdata, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s (warm vs cold %.2fx, vs baseline warm %.2fx)\n",
			warmOutPath, wr.SpeedupWarmVsCold, wr.SpeedupVsBaseline)
	}

	if writeBaseline {
		if baselinePath == "" {
			return fmt.Errorf("-write-baseline needs -baseline PATH")
		}
		if err := os.WriteFile(baselinePath, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "baseline %s refreshed\n", baselinePath)
		return nil
	}
	if baselinePath == "" {
		return nil
	}
	return gate(report, baselinePath, tolerance)
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

// measure runs BackDroid over the corpus with the given backend and sums
// the charged search work; the returned string is a deterministic
// detection summary (app, sink, verdict, values) used for parity checks.
func measure(meta CorpusMeta, kind bcsearch.BackendKind, cacheDir string) (BackendCost, string, error) {
	opts := core.DefaultOptions()
	opts.SearchBackend = kind
	var rec phaseRecorder
	rec.install(&opts)
	cost, det, err := measureWith(meta, experiments.RunConfig{
		RunBackDroid:     true,
		BackDroidOptions: &opts,
		Workers:          runtime.NumCPU(),
		IndexCacheDir:    cacheDir,
	})
	cost.Phases = rec.snapshot()
	return cost, det, err
}

// measureWith runs one corpus pass under the given config (possibly
// through a shared scheduler) and sums its charged work.
func measureWith(meta CorpusMeta, cfg experiments.RunConfig) (BackendCost, string, error) {
	run, err := experiments.RunCorpus(
		appgen.CorpusOptions{Apps: meta.Apps, Seed: meta.Seed, SizeScale: meta.Scale}, cfg)
	if err != nil {
		return BackendCost{}, "", err
	}
	var c BackendCost
	var det strings.Builder
	for _, a := range run.Apps {
		s := a.BackDroid.Stats
		c.LinesScanned += s.Search.LinesScanned
		c.PostingsScanned += s.Search.PostingsScanned
		c.MergedPostings += s.Search.MergedPostings
		c.IndexBuilds += s.Search.IndexBuilds
		c.IndexCacheHits += s.Search.IndexCacheHits
		c.DumpCacheHits += s.DumpCacheHits
		c.BundleStoreHits += s.BundleStoreHits
		c.DumpLinesCold += s.DumpLinesDisassembled
		c.ForwardMemoHits += s.ForwardMemoHits
		c.WorkUnits += s.WorkUnits
		c.SimMinutes += s.SimMinutes
		fmt.Fprintf(&det, "== %s ==\n", a.BackDroid.App)
		for _, sk := range a.BackDroid.Sinks {
			fmt.Fprintf(&det, "%s r=%v i=%v %v\n", sk.Call, sk.Reachable, sk.Insecure, sk.Values)
		}
	}
	return c, det.String(), nil
}

// measureService is the batch-reuse leg: one scheduler with an unbounded
// in-memory bundle store, the same corpus submitted twice through it. The
// first pass is cold (every fingerprint misses the store and is built
// once); the second must be fully warm — zero disassembly, zero index
// builds, every app a store hit — with detection output identical to the
// plain RunCorpus path.
func measureService(meta CorpusMeta) (ServiceReport, string, string, error) {
	opts := core.DefaultOptions()
	opts.SearchBackend = bcsearch.BackendSharded
	store := service.NewBundleStore(0)
	sched := service.New(service.Config{
		Workers: runtime.NumCPU(),
		Options: &opts,
		Store:   store,
	})
	defer sched.Close()

	cfg := experiments.RunConfig{RunBackDroid: true, Scheduler: sched}
	first, firstDet, err := measureWith(meta, cfg)
	if err != nil {
		return ServiceReport{}, "", "", err
	}
	second, secondDet, err := measureWith(meta, cfg)
	if err != nil {
		return ServiceReport{}, "", "", err
	}
	rep := ServiceReport{Corpus: meta, FirstPass: first, SecondPass: second}
	st := store.Stats()
	rep.Store = StoreStats{
		Entries: st.Entries, Bytes: st.Bytes, Hits: st.Hits,
		Misses: st.Misses, Puts: st.Puts, Evictions: st.Evictions,
		Drops: st.Drops,
	}
	if second.WorkUnits > 0 {
		rep.SpeedupBatchReuse = float64(first.WorkUnits) / float64(second.WorkUnits)
	}
	return rep, firstDet, secondDet, nil
}

// measureSettledStorm is the resubmission-storm leg: one scheduler with
// an unbounded report store, the corpus analyzed cold once and then
// resubmitted passes more times. Every storm serving must carry the
// bitwise-identical canonical encoding of the cold pass's report (the
// content-address contract), and the only charged work in the storm is
// the O(1) settled lookup per resubmission. The returned strings are the
// cold pass's detection summary and the last storm pass's, for the
// RunCorpus parity diff in run().
func measureSettledStorm(meta CorpusMeta, passes int) (SettledReport, string, string, error) {
	opts := core.DefaultOptions()
	opts.SearchBackend = bcsearch.BackendSharded
	reports := service.NewReportStore(0)
	sched := service.New(service.Config{
		Workers: runtime.NumCPU(),
		Options: &opts,
		Reports: reports,
	})
	defer sched.Close()

	// onePass runs the corpus through the shared scheduler and returns the
	// summed cost, the detection summary, the settled-lookup count and the
	// canonical encoding of every app's report.
	onePass := func() (BackendCost, string, int64, map[string][]byte, error) {
		run, err := experiments.RunCorpus(
			appgen.CorpusOptions{Apps: meta.Apps, Seed: meta.Seed, SizeScale: meta.Scale},
			experiments.RunConfig{RunBackDroid: true, Scheduler: sched})
		if err != nil {
			return BackendCost{}, "", 0, nil, err
		}
		var c BackendCost
		var lookups int64
		var det strings.Builder
		enc := make(map[string][]byte, len(run.Apps))
		for _, a := range run.Apps {
			s := a.BackDroid.Stats
			c.LinesScanned += s.Search.LinesScanned
			c.PostingsScanned += s.Search.PostingsScanned
			c.IndexBuilds += s.Search.IndexBuilds
			c.DumpLinesCold += s.DumpLinesDisassembled
			c.WorkUnits += s.WorkUnits
			c.SimMinutes += s.SimMinutes
			lookups += int64(s.SettledLookups)
			enc[a.BackDroid.App] = service.EncodeReport(a.BackDroid)
			fmt.Fprintf(&det, "== %s ==\n", a.BackDroid.App)
			for _, sk := range a.BackDroid.Sinks {
				fmt.Fprintf(&det, "%s r=%v i=%v %v\n", sk.Call, sk.Reachable, sk.Insecure, sk.Values)
			}
		}
		return c, det.String(), lookups, enc, nil
	}

	cold, coldDet, coldLookups, coldEnc, err := onePass()
	if err != nil {
		return SettledReport{}, "", "", err
	}
	if coldLookups != 0 {
		return SettledReport{}, "", "", fmt.Errorf("cold pass charged %d settled lookups, want 0", coldLookups)
	}
	rep := SettledReport{Corpus: meta, StormPasses: passes, ColdPass: cold}
	var stormDet string
	for p := 0; p < passes; p++ {
		cost, det, lookups, enc, err := onePass()
		if err != nil {
			return SettledReport{}, "", "", err
		}
		for app, want := range coldEnc {
			if !bytes.Equal(enc[app], want) {
				return SettledReport{}, "", "", fmt.Errorf(
					"storm pass %d: canonical encoding of %s diverges from the cold pass", p+1, app)
			}
		}
		rep.Storm.LinesScanned += cost.LinesScanned
		rep.Storm.PostingsScanned += cost.PostingsScanned
		rep.Storm.IndexBuilds += cost.IndexBuilds
		rep.Storm.DumpLinesCold += cost.DumpLinesCold
		rep.Storm.WorkUnits += cost.WorkUnits
		rep.Storm.SimMinutes += cost.SimMinutes
		rep.SettledLookups += lookups
		stormDet = det
	}
	st := reports.Stats()
	rep.Store = SettledStoreStats{
		Entries: st.Entries, Bytes: st.Bytes, Hits: st.Hits,
		Misses: st.Misses, Puts: st.Puts, Evictions: st.Evictions,
	}
	if cold.WorkUnits > 0 {
		rep.ChargeRatio = float64(rep.Storm.WorkUnits) / float64(cold.WorkUnits)
	}
	if rep.Storm.WorkUnits > 0 {
		rep.SpeedupSettled = float64(cold.WorkUnits) * float64(passes) / float64(rep.Storm.WorkUnits)
	}
	return rep, coldDet, stormDet, nil
}

// measureFairDispatch runs the two-tenant interleave: tenant "heavy"
// submits its full mixed workload (many-sink outlier first), tenant
// "light" its small apps afterwards, one journaled single-worker
// scheduler drains both. A gate job pins the worker until every submit
// landed, so the dispatch sequence is the pure WRR order of the queue
// contents — deterministic for a given seed.
func measureFairDispatch(seed int64) (TenantReport, error) {
	loads := appgen.TenantWorkloads(appgen.TenantWorkloadOptions{
		Tenants: 2, SmallApps: 4, Seed: seed, HeavySinks: 40,
	})
	heavySpecs := loads[0].Specs     // outlier + small apps
	lightSpecs := loads[1].Specs[1:] // small apps only

	jdir, err := os.MkdirTemp("", "benchgate-journal-*")
	if err != nil {
		return TenantReport{}, err
	}
	defer os.RemoveAll(jdir)
	jnl, _, err := journal.Open(jdir)
	if err != nil {
		return TenantReport{}, err
	}
	defer jnl.Close()

	events := make(chan service.Event, 64)
	var order []string
	var drain sync.WaitGroup
	drain.Add(1)
	go func() {
		defer drain.Done()
		for ev := range events {
			if ev.Kind == service.EventStarted && ev.Name != "gate" {
				order = append(order, ev.Name)
			}
		}
	}()

	opts := core.DefaultOptions()
	opts.SearchBackend = bcsearch.BackendSharded
	sched := service.New(service.Config{
		Workers: 1, QueueDepth: 64,
		Options: &opts,
		Journal: jnl,
		Events:  events,
	})

	gate := make(chan struct{})
	gateID, err := sched.Submit(service.Job{
		Name:   "gate",
		Tenant: "zz-gate", // sorts last: never steals a WRR slot from real work
		Source: func() (*apk.App, error) {
			<-gate
			app, _, err := appgen.Generate(appgen.Spec{
				Name: "com.gate.noop", Seed: seed, SizeMB: 0.2,
				Sinks: []appgen.SinkSpec{{Flow: appgen.FlowDirect, Rule: android.RuleCryptoECB}},
			})
			return app, err
		},
		RunBackDroid: true,
	})
	if err != nil {
		return TenantReport{}, err
	}
	submit := func(tenant string, specs []appgen.Spec) ([]service.JobID, error) {
		ids := make([]service.JobID, 0, len(specs))
		for _, spec := range specs {
			spec := spec
			id, err := sched.Submit(service.Job{
				Name: tenant + ":" + spec.Name, Tenant: tenant,
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
	heavyIDs, err := submit("heavy", heavySpecs)
	if err != nil {
		return TenantReport{}, err
	}
	lightIDs, err := submit("light", lightSpecs)
	if err != nil {
		return TenantReport{}, err
	}
	close(gate)

	tr := TenantReport{
		Seed:      seed,
		HeavyJobs: len(heavyIDs),
		LightJobs: len(lightIDs),
	}
	if _, err := sched.Wait(gateID); err != nil {
		return TenantReport{}, err
	}
	for _, id := range heavyIDs {
		res, err := sched.Wait(id)
		if err != nil {
			return TenantReport{}, err
		}
		tr.HeavyUnits += res.BackDroid.Stats.WorkUnits
	}
	for _, id := range lightIDs {
		res, err := sched.Wait(id)
		if err != nil {
			return TenantReport{}, err
		}
		tr.LightUnits += res.BackDroid.Stats.WorkUnits
	}
	ss := sched.Stats()
	sched.Close()
	close(events)
	drain.Wait()

	tr.DispatchOrder = order
	// Equal weights alternate once both tenants queue: light job i lands
	// by slot 2i, +1 slack for the round the cursor starts in.
	tr.FairnessBound = 2*len(lightIDs) + 1
	for slot, name := range order {
		if strings.HasPrefix(name, "light:") {
			tr.LastLightSlot = slot + 1
		}
	}
	tr.AnalysisUnits = tr.HeavyUnits + tr.LightUnits
	tr.JournalUnits = ss.JournalUnits
	js := jnl.Stats()
	tr.JournalRecords = js.Records
	tr.JournalBytes = js.Bytes
	if tr.AnalysisUnits > 0 {
		tr.JournalOverhead = float64(tr.JournalUnits) / float64(tr.AnalysisUnits)
	}
	return tr, nil
}

// fleetRunOutcome is one fleet corpus pass: the canonical per-job report
// encodings, the charged analysis work and the fleet's resilience
// counters.
type fleetRunOutcome struct {
	union         map[string][]byte // job name -> service.EncodeReport bytes
	analysisUnits int64
	lastLightSlot int
	stats         *service.FleetStats
	journalUnits  int64
}

// fleetCorpusRun drives the heavy+light tenant corpus through a fleet of
// nodes under the given fault plan (nil = uninterrupted reference). Every
// node is first parked on a blocking gate job so the whole corpus queues
// before the first real WRR pop — the dispatch sequence numbers are then
// a pure function of the queue contents, exactly like the single-worker
// fair-dispatch leg, and the light tenant's slots are comparable across
// runs even though four nodes pull concurrently.
func fleetCorpusRun(seed int64, nodes int, heavy, light []appgen.Spec, plan *faultinject.Plan) (fleetRunOutcome, error) {
	out := fleetRunOutcome{union: make(map[string][]byte, len(heavy)+len(light))}
	jdir, err := os.MkdirTemp("", "benchgate-fleet-*")
	if err != nil {
		return out, err
	}
	defer os.RemoveAll(jdir)
	jnl, _, err := journal.Open(jdir)
	if err != nil {
		return out, err
	}
	defer jnl.Close()

	events := make(chan service.Event, 256)
	var maxLightSeq int64
	var drain sync.WaitGroup
	drain.Add(1)
	go func() {
		defer drain.Done()
		for ev := range events {
			// First-attempt dispatches only: a handoff re-dispatch is
			// recovery, not a fresh slot the light tenant competes for.
			if ev.Kind == service.EventStarted && ev.Attempt == 1 &&
				strings.HasPrefix(ev.Name, "light:") && ev.Seq > maxLightSeq {
				maxLightSeq = ev.Seq
			}
		}
	}()

	opts := core.DefaultOptions()
	opts.SearchBackend = bcsearch.BackendSharded
	sched := service.New(service.Config{
		Nodes: nodes, NodeStoreBudget: 0, Faults: plan,
		QueueDepth: 64,
		Options:    &opts,
		Journal:    jnl,
		Events:     events,
	})

	// Park every node on a gate job (gates take dispatch slots 1..nodes).
	parked := make(chan struct{}, nodes)
	gate := make(chan struct{})
	gateIDs := make([]service.JobID, 0, nodes)
	for i := 0; i < nodes; i++ {
		i := i
		id, err := sched.Submit(service.Job{
			Name: fmt.Sprintf("gate%d", i), Tenant: "zz-gate",
			Source: func() (*apk.App, error) {
				parked <- struct{}{}
				<-gate
				app, _, err := appgen.Generate(appgen.Spec{
					Name: fmt.Sprintf("com.gate.noop%d", i), Seed: seed + int64(i), SizeMB: 0.2,
					Sinks: []appgen.SinkSpec{{Flow: appgen.FlowDirect, Rule: android.RuleCryptoECB}},
				})
				return app, err
			},
			RunBackDroid: true,
		})
		if err != nil {
			return out, err
		}
		gateIDs = append(gateIDs, id)
	}
	for i := 0; i < nodes; i++ {
		<-parked
	}

	submit := func(tenant string, specs []appgen.Spec) ([]service.JobID, []string, error) {
		ids := make([]service.JobID, 0, len(specs))
		names := make([]string, 0, len(specs))
		for _, spec := range specs {
			spec := spec
			name := tenant + ":" + spec.Name
			id, err := sched.Submit(service.Job{
				Name: name, Tenant: tenant,
				Source: func() (*apk.App, error) {
					app, _, err := appgen.Generate(spec)
					return app, err
				},
				RunBackDroid: true,
			})
			if err != nil {
				return nil, nil, err
			}
			ids = append(ids, id)
			names = append(names, name)
		}
		return ids, names, nil
	}
	heavyIDs, heavyNames, err := submit("heavy", heavy)
	if err != nil {
		return out, err
	}
	lightIDs, lightNames, err := submit("light", light)
	if err != nil {
		return out, err
	}
	close(gate)

	wait := func(ids []service.JobID, names []string) error {
		for i, id := range ids {
			res, err := sched.Wait(id)
			if err != nil {
				return fmt.Errorf("fleet job %s: %w", names[i], err)
			}
			out.analysisUnits += res.BackDroid.Stats.WorkUnits
			out.union[names[i]] = service.EncodeReport(res.BackDroid)
		}
		return nil
	}
	if err := wait(heavyIDs, heavyNames); err != nil {
		return out, err
	}
	if err := wait(lightIDs, lightNames); err != nil {
		return out, err
	}
	for _, id := range gateIDs {
		if _, err := sched.Wait(id); err != nil {
			return out, err
		}
	}
	ss := sched.Stats()
	out.stats = sched.FleetStats()
	sched.Close()
	close(events)
	drain.Wait()
	out.journalUnits = ss.JournalUnits
	out.lastLightSlot = int(maxLightSeq) - nodes
	return out, nil
}

// measureFleetChaos is the fleet-chaos leg: the tenant corpus through a
// four-node fleet, uninterrupted and under a fault plan that kills the
// node running the heavy tenant's outlier and the node running one of
// its small apps, each 64 charged units into the attempt. Both kills
// expire a lease, journal a handoff and re-dispatch onto a surviving
// node; the leg then compares the two runs' canonical report unions
// byte for byte.
func measureFleetChaos(seed int64) (FleetReport, error) {
	const nodes = 4
	loads := appgen.TenantWorkloads(appgen.TenantWorkloadOptions{
		Tenants: 2, SmallApps: 4, Seed: seed, HeavySinks: 40,
	})
	heavySpecs := loads[0].Specs     // outlier + small apps
	lightSpecs := loads[1].Specs[1:] // small apps only

	plan := faultinject.New(
		faultinject.Fault{Kind: faultinject.KillJob, Job: "heavy:" + heavySpecs[0].Name, AtUnit: 64},
		faultinject.Fault{Kind: faultinject.KillJob, Job: "heavy:" + heavySpecs[2].Name, AtUnit: 64},
	)
	fr := FleetReport{
		Seed: seed, Nodes: nodes, Plan: plan.String(),
		HeavyJobs: len(heavySpecs), LightJobs: len(lightSpecs),
		FairnessBound: 2*len(lightSpecs) + 1,
	}

	ref, err := fleetCorpusRun(seed, nodes, heavySpecs, lightSpecs, nil)
	if err != nil {
		return fr, err
	}
	chaos, err := fleetCorpusRun(seed, nodes, heavySpecs, lightSpecs, plan)
	if err != nil {
		return fr, err
	}

	fr.UnionIdentical = len(chaos.union) == len(ref.union)
	for name, enc := range ref.union {
		if !bytes.Equal(chaos.union[name], enc) {
			fr.UnionIdentical = false
		}
	}
	fs := chaos.stats
	fr.Killed = fs.Killed
	fr.Survivors = fs.Live
	fr.Handoffs = fs.Handoffs
	fr.ExpiredLeases = fs.ExpiredLeases
	fr.LostUnits = fs.LostUnits
	fr.OverheadUnits = fs.OverheadUnits
	fr.AnalysisUnits = chaos.analysisUnits
	if fr.AnalysisUnits > 0 {
		fr.OverheadRatio = float64(fr.OverheadUnits) / float64(fr.AnalysisUnits)
	}
	fr.LastLightSlot = chaos.lastLightSlot
	fr.JournalUnits = chaos.journalUnits
	return fr, nil
}

// stealTailRun drives the heavy-tail corpus through a fleet once. The
// outlier is submitted first — the worst case for job-level placement:
// its node commits to the whole sink tail before the small apps even
// queue. Returns the canonical per-job report encodings, the summed
// charged analysis work and the fleet counters.
func stealTailRun(nodes int, specs []appgen.Spec, steal bool, rec *phaseRecorder) (map[string][]byte, int64, *service.FleetStats, error) {
	opts := core.DefaultOptions()
	opts.SearchBackend = bcsearch.BackendSharded
	if !steal {
		opts.SinkChunk = 0 // job-level placement: the outlier is unsplittable
	}
	if rec != nil {
		rec.install(&opts)
	}
	sched := service.New(service.Config{
		Nodes: nodes, NodeStoreBudget: 0,
		QueueDepth: 2 * len(specs),
		Options:    &opts,
	})
	ids := make([]service.JobID, 0, len(specs))
	for _, spec := range specs {
		spec := spec
		id, err := sched.Submit(service.Job{
			Name: spec.Name,
			Source: func() (*apk.App, error) {
				app, _, err := appgen.Generate(spec)
				return app, err
			},
			RunBackDroid: true,
		})
		if err != nil {
			sched.Close()
			return nil, 0, nil, err
		}
		ids = append(ids, id)
	}
	union := make(map[string][]byte, len(specs))
	var analysisUnits int64
	for i, id := range ids {
		res, err := sched.Wait(id)
		if err != nil {
			sched.Close()
			return nil, 0, nil, fmt.Errorf("heavy-tail job %s: %w", specs[i].Name, err)
		}
		analysisUnits += res.BackDroid.Stats.WorkUnits
		union[res.Name] = service.EncodeReport(res.BackDroid)
	}
	sched.Close()
	return union, analysisUnits, sched.FleetStats(), nil
}

// measureStealTail is the heavy-tail work-stealing leg: the appgen
// heavy-tail corpus (one 121-sink outlier first, then small apps)
// through a four-node fleet with sink-chunk stealing off and on. The
// charged makespan — the busiest node's odometer — is the comparison:
// identical total work, redistributed across the idle tail.
func measureStealTail(seed int64) (StealReport, error) {
	const nodes = 4
	specs := appgen.HeavyTailCorpus(appgen.HeavyTailOptions{Seed: seed})
	sr := StealReport{
		Seed: seed, Nodes: nodes,
		Apps: len(specs), HeavySinks: len(specs[0].Sinks),
	}

	baseUnion, _, baseStats, err := stealTailRun(nodes, specs, false, nil)
	if err != nil {
		return sr, err
	}
	if baseStats.Steals != 0 {
		return sr, fmt.Errorf("no-steal reference run stole %d chunks", baseStats.Steals)
	}
	var rec phaseRecorder
	union, analysisUnits, stats, err := stealTailRun(nodes, specs, true, &rec)
	if err != nil {
		return sr, err
	}
	sr.Phases = rec.snapshot()
	if stats.Handoffs != 0 || stats.Killed != 0 {
		return sr, fmt.Errorf("undisturbed heavy-tail run saw failures: %d handoffs, %d nodes killed",
			stats.Handoffs, stats.Killed)
	}

	sr.UnionIdentical = len(union) == len(baseUnion)
	for name, enc := range baseUnion {
		if !bytes.Equal(union[name], enc) {
			sr.UnionIdentical = false
		}
	}
	sr.NoStealMakespan = baseStats.MakespanUnits
	sr.StealMakespan = stats.MakespanUnits
	if sr.StealMakespan > 0 {
		sr.SpeedupMakespan = float64(sr.NoStealMakespan) / float64(sr.StealMakespan)
	}
	sr.Steals = stats.Steals
	sr.StealVictims = stats.StealVictims
	sr.StolenSinks = stats.StolenSinks
	sr.StealUnits = stats.StealUnits
	sr.RemoteGets = stats.RemoteGets
	sr.RemoteUnits = stats.RemoteUnits
	sr.AnalysisUnits = analysisUnits
	if analysisUnits > 0 {
		// Everything stealing adds on top of the analysis itself: the
		// per-steal coordination charge plus the stolen chunks' remote
		// bundle fetches.
		sr.OverheadRatio = float64(stats.StealUnits+stats.RemoteUnits) / float64(analysisUnits)
	}
	return sr, nil
}

// measureDelta is the delta-update leg: one moderately sized app and its
// three mutation kinds. Per kind, the updated app is analyzed cold in a
// fresh store (the reference) and incrementally in the base version's
// store with the base bundle + report as the delta base. The chain store
// carries a shared shard store, so every base/update pair also exercises
// the cross-version postings dedup. Fails when any incremental run's
// detection output diverges from its cold reference.
func measureDelta(seed int64) (DeltaReport, error) {
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
	rep := DeltaReport{App: DeltaApp{Name: spec.Name, SizeMB: spec.SizeMB, Seed: seed, Sinks: len(spec.Sinks)}}

	analyze := func(app *apk.App, store *service.BundleStore, from *core.DeltaBase) (*core.Report, error) {
		opts := core.DefaultOptions()
		opts.SearchBackend = bcsearch.BackendSharded
		opts.Bundles = store
		opts.DeltaFrom = from
		e, err := core.New(app, opts)
		if err != nil {
			return nil, err
		}
		return e.Analyze()
	}
	detOf := func(r *core.Report) string {
		var b strings.Builder
		for _, sk := range r.Sinks {
			fmt.Fprintf(&b, "%s r=%v i=%v %v\n", sk.Call, sk.Reachable, sk.Insecure, sk.Values)
		}
		return b.String()
	}

	shards := service.NewShardStore()
	for _, m := range appgen.Mutations() {
		upd, _, err := appgen.GenerateUpdate(appgen.AppUpdateSpec{
			Base: spec, Mutation: m, TargetSink: 0, Seed: seed + 1,
		})
		if err != nil {
			return rep, err
		}

		// Cold reference: the update analyzed from scratch, own store so
		// nothing warms it.
		cold, err := analyze(upd, service.NewBundleStore(0), nil)
		if err != nil {
			return rep, err
		}

		// Incremental chain: base populates the store, then the update
		// re-analyzes against the base bundle + report.
		base, _, err := appgen.Generate(spec)
		if err != nil {
			return rep, err
		}
		store := service.NewBundleStore(0)
		store.AttachShardStore(shards)
		baseRep, err := analyze(base, store, nil)
		if err != nil {
			return rep, err
		}
		fp := dexdump.AppFingerprint(base.Dexes)
		bundle, ok := store.GetBundle(fp)
		if !ok {
			return rep, fmt.Errorf("delta leg %q: base bundle missing from store", m)
		}
		delta, err := analyze(upd, store, &core.DeltaBase{Fingerprint: fp, Bundle: bundle, Report: baseRep})
		if err != nil {
			return rep, err
		}
		if detOf(delta) != detOf(cold) {
			return rep, fmt.Errorf("delta leg %q: incremental detection output diverges from cold:\n%svs\n%s",
				m, detOf(delta), detOf(cold))
		}

		ds, cs := delta.Stats, cold.Stats
		leg := DeltaLeg{
			Mutation:        m.String(),
			ColdUnits:       cs.WorkUnits,
			DeltaUnits:      ds.WorkUnits,
			SinksReused:     ds.SinksReused,
			SinksRerun:      ds.SinksRerun,
			ShardsUnchanged: ds.ShardsUnchanged,
			ShardsChanged:   ds.ShardsChanged,
			ReusedLines:     ds.DeltaReusedLines,
		}
		if cs.WorkUnits > 0 {
			leg.CostRatio = float64(ds.WorkUnits) / float64(cs.WorkUnits)
		}
		rep.Legs = append(rep.Legs, leg)
	}
	ss := shards.Stats()
	rep.ShardStore = ShardDedup{
		Entries: ss.Entries, Bytes: ss.Bytes, Puts: ss.Puts,
		Hits: ss.Hits, BytesDeduped: ss.BytesDeduped,
	}
	return rep, nil
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
func gate(report Report, baselinePath string, tolerance float64) error {
	base, err := readBaseline(baselinePath)
	if err != nil {
		return fmt.Errorf("reading baseline %s: %w (run with -write-baseline to create it)", baselinePath, err)
	}
	if base.Corpus != report.Corpus {
		return fmt.Errorf("baseline measured corpus %+v, this run %+v — not comparable", base.Corpus, report.Corpus)
	}
	var failures []string
	check := func(name, metric string, cur, old int64) {
		if old <= 0 {
			return
		}
		limit := float64(old) * (1 + tolerance)
		switch {
		case float64(cur) > limit:
			failures = append(failures, fmt.Sprintf(
				"%s %s regressed: %d -> %d (+%.1f%%, limit +%.0f%%)",
				name, metric, old, cur, 100*float64(cur-old)/float64(old), 100*tolerance))
		case cur < old:
			fmt.Fprintf(os.Stderr, "note: %s %s improved: %d -> %d (-%.1f%%); consider refreshing the baseline\n",
				name, metric, old, cur, 100*float64(old-cur)/float64(old))
		}
	}
	for name, old := range base.Backends {
		cur, ok := report.Backends[name]
		if !ok {
			failures = append(failures, fmt.Sprintf("backend %q in baseline but not measured", name))
			continue
		}
		check(name, "work_units", cur.WorkUnits, old.WorkUnits)
		check(name, "lines_scanned", cur.LinesScanned, old.LinesScanned)
	}
	check("warm-cache", "work_units", report.WarmCache.WorkUnits, base.WarmCache.WorkUnits)
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "REGRESSION:", f)
		}
		return fmt.Errorf("%d charged-work regression(s) vs %s", len(failures), baselinePath)
	}
	fmt.Fprintln(os.Stderr, "bench gate passed: no charged-work regressions")
	return nil
}
