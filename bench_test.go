// Package backdroid's root benchmark harness: one benchmark per table and
// figure of the paper's evaluation, plus ablations of the design choices
// DESIGN.md calls out. Benchmarks run a scaled-down corpus so they finish
// in seconds; cmd/benchrun reproduces the figures at paper scale.
package backdroid

import (
	"fmt"
	"testing"

	"backdroid/internal/android"
	"backdroid/internal/apk"
	"backdroid/internal/appgen"
	"backdroid/internal/bcsearch"
	"backdroid/internal/core"
	"backdroid/internal/experiments"
	"backdroid/internal/service"
	"backdroid/internal/testapps"
)

// benchCorpus is the scaled corpus used by the figure benchmarks.
func benchCorpus() appgen.CorpusOptions {
	return appgen.CorpusOptions{Apps: 16, Seed: 20200523, SizeScale: 0.15}
}

func runScaledCorpus(b *testing.B, cfg experiments.RunConfig) *experiments.CorpusRun {
	b.Helper()
	run, err := experiments.RunCorpus(benchCorpus(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	return run
}

// BenchmarkTable1SizeTrend regenerates Table I (app size trend 2014-2018).
func BenchmarkTable1SizeTrend(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Table1(int64(i) + 1)
		if len(res.Rows) != 5 {
			b.Fatal("table 1 must have 5 year rows")
		}
	}
}

// BenchmarkFig1CallGraphCost regenerates Fig. 1 (whole-app call graph
// generation time distribution).
func BenchmarkFig1CallGraphCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		run := runScaledCorpus(b, experiments.RunConfig{RunCallGraph: true})
		h := experiments.Fig1(run)
		if h.Total == 0 {
			b.Fatal("no call graph samples")
		}
	}
}

// BenchmarkFig7BackDroidTime regenerates Fig. 7 (BackDroid time
// distribution).
func BenchmarkFig7BackDroidTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		run := runScaledCorpus(b, experiments.RunConfig{RunBackDroid: true})
		h := experiments.Fig7(run)
		if h.Total == 0 {
			b.Fatal("no BackDroid samples")
		}
	}
}

// BenchmarkFig8WholeAppTime regenerates Fig. 8 (Amandroid-style time
// distribution with the timeout bar).
func BenchmarkFig8WholeAppTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		run := runScaledCorpus(b, experiments.RunConfig{RunWholeApp: true})
		h := experiments.Fig8(run)
		if h.Total == 0 {
			b.Fatal("no whole-app samples")
		}
	}
}

// BenchmarkFig9SinkScaling regenerates Fig. 9 (#sink calls vs BackDroid
// time).
func BenchmarkFig9SinkScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		run := runScaledCorpus(b, experiments.RunConfig{RunBackDroid: true})
		f := experiments.Fig9(run)
		if len(f.Points) == 0 || f.AvgSinksPerApp <= 0 {
			b.Fatal("no Fig. 9 points")
		}
	}
}

// BenchmarkHeadlineSpeedup regenerates the Sec. VI-B headline comparison
// (median times, speedup, timeout rates).
func BenchmarkHeadlineSpeedup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		run := runScaledCorpus(b, experiments.RunConfig{
			RunBackDroid: true, RunWholeApp: true, RunCallGraph: true,
		})
		h := experiments.Headline(run)
		if h.Speedup <= 1 {
			b.Fatalf("speedup = %.1f, expected >1", h.Speedup)
		}
	}
}

// BenchmarkDetectionComparison regenerates the Sec. VI-C detection
// accuracy comparison against ground truth.
func BenchmarkDetectionComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		run := runScaledCorpus(b, experiments.RunConfig{
			RunBackDroid: true, RunWholeApp: true,
		})
		d := experiments.Detection(run)
		if d.TrueVulns == 0 {
			b.Fatal("corpus embedded no vulnerabilities")
		}
	}
}

// BenchmarkCacheAndLoopStats regenerates the Sec. IV-F engineering
// statistics (cache rates, loop detection).
func BenchmarkCacheAndLoopStats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		run := runScaledCorpus(b, experiments.RunConfig{RunBackDroid: true})
		s := experiments.CacheStats(run)
		if s.SearchRateAvg <= 0 {
			b.Fatal("no cache statistics")
		}
	}
}

// BenchmarkClinitReachability verifies the Sec. IV-C recursive
// static-initializer search against ground truth.
func BenchmarkClinitReachability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		run := runScaledCorpus(b, experiments.RunConfig{RunBackDroid: true})
		c := experiments.ClinitCheck(run)
		if c.Claimed != c.Confirmed {
			b.Fatalf("clinit reachability %d/%d: recursive search over-claimed",
				c.Confirmed, c.Claimed)
		}
	}
}

// benchAblationApp generates a mid-size app with enough sinks and flow
// variety that the engineering enhancements have measurable effect.
func benchAblationApp(b *testing.B) *apk.App {
	b.Helper()
	var sinks []appgen.SinkSpec
	flows := []appgen.Flow{
		appgen.FlowDirect, appgen.FlowThread, appgen.FlowClinit,
		appgen.FlowAsyncExecutor, appgen.FlowCallback, appgen.FlowICC,
		appgen.FlowChildClass, appgen.FlowSuperPoly, appgen.FlowDead,
	}
	for i := 0; i < 24; i++ {
		rule := android.RuleCryptoECB
		if i%3 == 0 {
			rule = android.RuleSSLAllowAll
		}
		sinks = append(sinks, appgen.SinkSpec{
			Flow: flows[i%len(flows)], Rule: rule, Insecure: i%4 == 0,
		})
	}
	app, _, err := appgen.Generate(appgen.Spec{
		Name: "com.bench.ablation", Seed: 77, SizeMB: 6, Sinks: sinks,
	})
	if err != nil {
		b.Fatal(err)
	}
	return app
}

// benchFixtureEngine runs BackDroid over the ablation app with the given
// options, reporting simulated work units alongside wall time.
func benchFixtureEngine(b *testing.B, opts core.Options) {
	b.Helper()
	app := benchAblationApp(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := core.New(app, opts)
		if err != nil {
			b.Fatal(err)
		}
		r, err := e.Analyze()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.Stats.WorkUnits), "workunits/op")
	}
}

// BenchmarkAblationSearchCache compares the engine with and without the
// Sec. IV-F search command cache.
func BenchmarkAblationSearchCache(b *testing.B) {
	b.Run("on", func(b *testing.B) {
		benchFixtureEngine(b, core.DefaultOptions())
	})
	b.Run("off", func(b *testing.B) {
		opts := core.DefaultOptions()
		opts.EnableSearchCache = false
		benchFixtureEngine(b, opts)
	})
}

// BenchmarkAblationSinkCache compares with and without the sink
// reachability cache.
func BenchmarkAblationSinkCache(b *testing.B) {
	b.Run("on", func(b *testing.B) {
		benchFixtureEngine(b, core.DefaultOptions())
	})
	b.Run("off", func(b *testing.B) {
		opts := core.DefaultOptions()
		opts.EnableSinkCache = false
		benchFixtureEngine(b, opts)
	})
}

// BenchmarkAblationLoopDetection compares loop detection against the
// depth-bound-only fallback.
func BenchmarkAblationLoopDetection(b *testing.B) {
	b.Run("on", func(b *testing.B) {
		benchFixtureEngine(b, core.DefaultOptions())
	})
	b.Run("off", func(b *testing.B) {
		opts := core.DefaultOptions()
		opts.EnableLoopDetection = false
		opts.MaxDepth = 12 // rely on the bound alone
		benchFixtureEngine(b, opts)
	})
}

// BenchmarkAblationFieldSearch compares the static-field write search
// against analyzing every contained method (Sec. V-A).
func BenchmarkAblationFieldSearch(b *testing.B) {
	b.Run("search", func(b *testing.B) {
		benchFixtureEngine(b, core.DefaultOptions())
	})
	b.Run("all-contained", func(b *testing.B) {
		opts := core.DefaultOptions()
		opts.AnalyzeAllContained = true
		benchFixtureEngine(b, opts)
	})
}

// BenchmarkAblationSinkSubclass compares the default initial sink search
// against the class-hierarchy-aware variant that removes the paper's two
// false negatives.
func BenchmarkAblationSinkSubclass(b *testing.B) {
	b.Run("default", func(b *testing.B) {
		benchFixtureEngine(b, core.DefaultOptions())
	})
	b.Run("subclass-aware", func(b *testing.B) {
		opts := core.DefaultOptions()
		opts.ResolveSinkSubclasses = true
		benchFixtureEngine(b, opts)
	})
}

// corpusSearchCost runs BackDroid over the scaled corpus with the given
// search backend and returns the total charged line-scans, postings visits
// and work units across all apps.
func corpusSearchCost(b *testing.B, kind bcsearch.BackendKind) (lines, postings, units int64) {
	b.Helper()
	opts := core.DefaultOptions()
	opts.SearchBackend = kind
	run := runScaledCorpus(b, experiments.RunConfig{RunBackDroid: true, BackDroidOptions: &opts})
	for _, a := range run.Apps {
		lines += a.BackDroid.Stats.Search.LinesScanned
		postings += a.BackDroid.Stats.Search.PostingsScanned
		units += a.BackDroid.Stats.WorkUnits
	}
	return lines, postings, units
}

// BenchmarkSearchLinearVsIndexed is the backend ablation of the DESIGN.md
// Sec. 3 refactor: the same corpus analyzed with the paper-faithful linear
// scanner and with the inverted-index backend. The benchmark is
// self-checking — the indexed backend must charge strictly fewer
// line-scan units (and strictly less total simulated work) than linear,
// or the index is not doing its job.
func BenchmarkSearchLinearVsIndexed(b *testing.B) {
	for i := 0; i < b.N; i++ {
		linLines, _, linUnits := corpusSearchCost(b, bcsearch.BackendLinear)
		idxLines, idxPostings, idxUnits := corpusSearchCost(b, bcsearch.BackendIndexed)
		if idxLines >= linLines {
			b.Fatalf("indexed scanned %d lines, linear %d — index must scan strictly fewer", idxLines, linLines)
		}
		if idxUnits >= linUnits {
			b.Fatalf("indexed charged %d units, linear %d — index must be strictly cheaper", idxUnits, linUnits)
		}
		b.ReportMetric(float64(linLines), "linear-lines/op")
		b.ReportMetric(float64(idxLines), "indexed-lines/op")
		b.ReportMetric(float64(idxPostings), "indexed-postings/op")
		b.ReportMetric(float64(linUnits)/float64(idxUnits), "search-speedup")
	}
}

// BenchmarkIndexCacheWarmCorpus measures the persistent-cache payoff: the
// same corpus analyzed cold (tokenizing and writing cache files) and warm
// (loading them). The warm run must charge zero index builds and strictly
// less total work — the benchmark self-checks the cache contract the CI
// gate also enforces.
func BenchmarkIndexCacheWarmCorpus(b *testing.B) {
	for i := 0; i < b.N; i++ {
		dir := b.TempDir()
		opts := core.DefaultOptions()
		opts.IndexCacheDir = dir
		cfg := experiments.RunConfig{RunBackDroid: true, BackDroidOptions: &opts}
		measure := func() (builds int, units int64) {
			run := runScaledCorpus(b, cfg)
			for _, a := range run.Apps {
				builds += a.BackDroid.Stats.Search.IndexBuilds
				units += a.BackDroid.Stats.WorkUnits
			}
			return builds, units
		}
		coldBuilds, coldUnits := measure()
		warmBuilds, warmUnits := measure()
		if coldBuilds == 0 {
			b.Fatal("cold corpus run built no indexes")
		}
		if warmBuilds != 0 {
			b.Fatalf("warm corpus run built %d indexes, want 0", warmBuilds)
		}
		if warmUnits >= coldUnits {
			b.Fatalf("warm run charged %d units, cold %d — cache not cheaper", warmUnits, coldUnits)
		}
		b.ReportMetric(float64(coldUnits), "cold-units/op")
		b.ReportMetric(float64(warmUnits), "warm-units/op")
		b.ReportMetric(float64(coldUnits)/float64(warmUnits), "cache-speedup")
	}
}

// BenchmarkWarmStartEndToEnd measures the fully-warm engine path: the
// first run over an app writes the persistent bundle (index + dump), the
// second loads both. The benchmark is self-checking — the warm run must
// perform zero disassembly and zero index builds, charge strictly less
// total simulated work than the cold run, and report identical verdicts.
func BenchmarkWarmStartEndToEnd(b *testing.B) {
	app := benchAblationApp(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := b.TempDir()
		b.StartTimer()
		opts := core.DefaultOptions()
		opts.IndexCacheDir = dir

		analyze := func() *core.Report {
			e, err := core.New(app, opts)
			if err != nil {
				b.Fatal(err)
			}
			r, err := e.Analyze()
			if err != nil {
				b.Fatal(err)
			}
			return r
		}
		cold := analyze()
		warm := analyze()

		cs, ws := cold.Stats, warm.Stats
		if cs.DumpCacheHits != 0 || cs.DumpCacheMisses != 1 || cs.DumpLinesDisassembled == 0 {
			b.Fatalf("cold run dump stats = %+v, want one probe miss and a real disassembly", cs)
		}
		if ws.DumpCacheHits != 1 || ws.DumpLinesDisassembled != 0 {
			b.Fatalf("warm run dump stats = %+v, want a hit and zero disassembly", ws)
		}
		if ws.Search.IndexBuilds != 0 || ws.Search.IndexCacheHits != 1 {
			b.Fatalf("warm run index stats = %+v, want a pure cache load", ws.Search)
		}
		if ws.WorkUnits >= cs.WorkUnits {
			b.Fatalf("warm run charged %d units, cold %d — warm must be strictly cheaper", ws.WorkUnits, cs.WorkUnits)
		}
		if len(cold.Sinks) != len(warm.Sinks) {
			b.Fatal("warm run changed the sink set")
		}
		for j := range cold.Sinks {
			c, w := cold.Sinks[j], warm.Sinks[j]
			if c.Reachable != w.Reachable || c.Insecure != w.Insecure {
				b.Fatalf("sink %d verdict differs cold/warm", j)
			}
		}
		b.ReportMetric(float64(cs.WorkUnits), "cold-units/op")
		b.ReportMetric(float64(ws.WorkUnits), "warm-units/op")
		b.ReportMetric(float64(cs.WorkUnits)/float64(ws.WorkUnits), "warm-speedup")
	}
}

// BenchmarkBatchServiceReuse measures the batch-service payoff: the same
// corpus submitted twice through one scheduler with an in-memory
// content-addressed bundle store. The benchmark is self-checking — the
// second pass must perform zero disassembly, zero index builds and hit
// the store once per app, charge strictly less than the first pass, and
// report identical verdicts.
func BenchmarkBatchServiceReuse(b *testing.B) {
	for i := 0; i < b.N; i++ {
		opts := core.DefaultOptions()
		sched := service.New(service.Config{
			Workers: 4,
			Options: &opts,
			Store:   service.NewBundleStore(0),
		})
		cfg := experiments.RunConfig{RunBackDroid: true, Scheduler: sched}
		measure := func() (c struct {
			builds, storeHits int
			cold              int64
			units             int64
		}, det string) {
			run, err := experiments.RunCorpus(benchCorpus(), cfg)
			if err != nil {
				b.Fatal(err)
			}
			for _, a := range run.Apps {
				s := a.BackDroid.Stats
				c.builds += s.Search.IndexBuilds
				c.storeHits += s.BundleStoreHits
				c.cold += s.DumpLinesDisassembled
				c.units += s.WorkUnits
				for _, sk := range a.BackDroid.Sinks {
					det += fmt.Sprintf("%s r=%v i=%v %v\n", sk.Call, sk.Reachable, sk.Insecure, sk.Values)
				}
			}
			return c, det
		}
		first, firstDet := measure()
		second, secondDet := measure()
		sched.Close()

		if first.builds == 0 || first.cold == 0 {
			b.Fatal("first pass performed no real work")
		}
		if second.builds != 0 || second.cold != 0 {
			b.Fatalf("second pass built %d indexes, disassembled %d lines — store not hitting", second.builds, second.cold)
		}
		if second.storeHits != benchCorpus().Apps {
			b.Fatalf("second pass hit the store %d times, want one per app", second.storeHits)
		}
		if second.units >= first.units {
			b.Fatalf("second pass charged %d units, first %d — reuse must be strictly cheaper", second.units, first.units)
		}
		if firstDet != secondDet {
			b.Fatal("store reuse changed the detection output")
		}
		b.ReportMetric(float64(first.units), "first-units/op")
		b.ReportMetric(float64(second.units), "second-units/op")
		b.ReportMetric(float64(first.units)/float64(second.units), "reuse-speedup")
	}
}

// BenchmarkCorpusWorkers measures the wall-clock effect of the bounded
// worker pool on the scaled corpus (results are identical for any worker
// count; only elapsed time changes).
func BenchmarkCorpusWorkers(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		workers := workers
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				run, err := experiments.RunCorpus(benchCorpus(),
					experiments.RunConfig{RunBackDroid: true, Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				if len(run.Apps) == 0 {
					b.Fatal("empty corpus run")
				}
			}
		})
	}
}

// BenchmarkEnginePreprocessing measures the per-app preprocessing cost
// (multidex merge + disassembly + index construction).
func BenchmarkEnginePreprocessing(b *testing.B) {
	app, err := testapps.Fixture()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.New(app, core.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}
