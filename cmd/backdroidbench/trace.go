package main

import (
	"fmt"
	"io"
	"math"
	"sync"
	"time"
)

// Layers of the wall-time attribution that are not engine phases.
const (
	layerQueue = "service.queue_wait" // Submit call to Source start
	layerRead  = "apk.read"           // the apk.ReadBytes Source
	layerTail  = "service.tail"       // last boundary to the Done callback
)

// phases are the engine phases (core.Options.PhaseSpan names) the
// benchmark reports; each is attributed as "core.<phase>". The engine's
// index-build and index-load spans are left out: the default indexed
// backend builds or loads its index at the first search, so those spans
// are empty on every workload and the index time lands in locate-sinks.
var phases = []string{
	"disassembly", "bundle-load", "locate-sinks",
	"backslice", "constprop", "delta-diff", "delta-reuse",
}

// jobTrace records one job from outside the program: the wall time from
// each boundary (Submit, Source start and return, every PhaseSpan
// callback, the Done callback) to the previous one is attributed to the
// layer the boundary closes, so the layers of a job add up to its
// latency.
// Stolen chunks of a heavy-tail job share the job's recorder and run at
// the same time as the job itself; their boundaries interleave, so there
// the split between layers is an apportionment, not self time.
type jobTrace struct {
	mu    sync.Mutex
	last  time.Time
	ns    map[string]int64 // wall ns per layer
	units map[string]int64 // charged units per engine phase
}

func newJobTrace() *jobTrace {
	return &jobTrace{ns: make(map[string]int64), units: make(map[string]int64)}
}

// mark attributes the time since the previous boundary to layer.
func (t *jobTrace) mark(layer string, now time.Time) {
	t.mu.Lock()
	t.markLocked(layer, now)
	t.mu.Unlock()
}

func (t *jobTrace) markLocked(layer string, now time.Time) {
	if now.After(t.last) {
		t.ns[layer] += now.Sub(t.last).Nanoseconds()
		t.last = now
	}
}

// phase is the job's core.Options.PhaseSpan hook.
func (t *jobTrace) phase(name string, _ int, start, end int64) {
	t.mu.Lock()
	t.markLocked("core."+name, time.Now())
	t.units[name] += end - start
	t.mu.Unlock()
}

// layerMetrics computes the per-layer metrics of the traced rounds;
// overhead is traced over untraced apps_per_s.
func layerMetrics(traced []*round, overhead float64) map[string]metric {
	var (
		jobs, settled                    float64
		wall                             int64
		ns                               = make(map[string]int64)
		units                            = make(map[string]int64)
		lines, postings, memo            int64
		hits, probes, reused, rerun      int64
		bursts, steals, stolen, makespan int64
		appends, jbytes                  int64
	)
	for _, rd := range traced {
		for _, o := range rd.outs {
			jobs++
			wall += o.lat.Nanoseconds()
			for k, v := range o.tr.ns {
				ns[k] += v
			}
			for k, v := range o.tr.units {
				units[k] += v
			}
			st := o.stats
			lines += st.DumpLinesDisassembled
			postings += st.Search.PostingsScanned
			memo += st.ForwardMemoHits
			hits += int64(st.BundleStoreHits)
			probes += int64(st.BundleStoreHits + st.BundleStoreMisses)
			reused += int64(st.SinksReused)
			rerun += int64(st.SinksRerun)
			if st.SettledLookups > 0 {
				settled++
			}
		}
		bursts += rd.bursts
		steals += rd.steals
		stolen += rd.stolenSinks
		makespan += rd.makespan
		appends += rd.appends
		jbytes += rd.journalBytes
	}
	ms := func(n int64) float64 { return float64(n) / jobs / 1e6 }
	m := map[string]metric{
		"trace.job_ms":                    {ms(wall), "ms"},
		layerQueue + "_ms":                {ms(ns[layerQueue]), "ms"},
		layerRead + "_ms":                 {ms(ns[layerRead]), "ms"},
		layerTail + "_ms":                 {ms(ns[layerTail]), "ms"},
		"core.disassembled_lines_per_job": {float64(lines) / jobs, "lines"},
		"bcsearch.postings_per_job":       {float64(postings) / jobs, "postings"},
		"constprop.memo_hits_per_job":     {float64(memo) / jobs, "count"},
		"service.store_hit_rate":          {ratio(hits, probes), "ratio"},
		"service.settled_hit_rate":        {settled / jobs, "ratio"},
		"core.delta_reused_share":         {ratio(reused, reused+rerun), "ratio"},
		"service.steals_per_batch":        {ratio(steals, bursts), "count"},
		"service.stolen_sinks_per_batch":  {ratio(stolen, bursts), "count"},
		"service.makespan_units":          {ratio(makespan, bursts), "units"},
		"journal.appends_per_job":         {float64(appends) / jobs, "count"},
		"journal.bytes_per_job":           {float64(jbytes) / jobs, "bytes"},
		"trace_overhead":                  {overhead, "ratio"},
	}
	for _, p := range phases {
		m["core."+p+".ms"] = metric{ms(ns["core."+p]), "ms"}
		m["core."+p+".units"] = metric{float64(units[p]) / jobs, "units"}
		m["core."+p+".ns_per_unit"] = metric{ratio(ns["core."+p], units[p]), "ns/unit"}
	}
	return m
}

// ratio is a/b, or 0 when b is 0 (the layer did no work on this
// workload).
func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// printAccounting reports the share of the traced mean job time that the
// named layers account for; time in an engine phase the benchmark does
// not name shows as a shortfall.
func printAccounting(w io.Writer, m map[string]metric) {
	sum := m[layerQueue+"_ms"].Value + m[layerRead+"_ms"].Value + m[layerTail+"_ms"].Value
	for _, p := range phases {
		sum += m["core."+p+".ms"].Value
	}
	fmt.Fprintf(w, "accounting: named layers cover %.1f%% of the traced mean job time (%.3f of %.3f ms)\n",
		100*sum/m["trace.job_ms"].Value, sum, m["trace.job_ms"].Value)
}

// printCalibration prints the measured wall ns per charged simtime unit
// of each engine phase that ran, flagging any phase more than 4x from
// the median: there the simtime cost constant, or the code, is off.
// Informational only.
func printCalibration(w io.Writer, m map[string]metric) {
	var vals []float64
	for _, p := range phases {
		if v := m["core."+p+".ns_per_unit"].Value; v > 0 {
			vals = append(vals, v)
		}
	}
	if len(vals) == 0 {
		return
	}
	med := quantile(vals, 0.5)
	fmt.Fprintf(w, "calibration: wall ns per charged unit (median %.1f)\n", med)
	for _, p := range phases {
		v := m["core."+p+".ns_per_unit"].Value
		if v == 0 {
			continue
		}
		flag := ""
		if r := v / med; math.Max(r, 1/r) > 4 {
			flag = "  FLAG >4x from median"
		}
		fmt.Fprintf(w, "  %-14s %10.1f ns/unit  %6.2fx%s\n", p, v, v/med, flag)
	}
}
