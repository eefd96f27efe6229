// Command benchrun regenerates every table and figure of the paper's
// evaluation and prints them with paper-vs-measured annotations: each
// rendered table carries the paper's value beside the measured one, and
// DESIGN.md Sec. 5 documents the simulated-time cost model behind them.
//
// Usage:
//
//	benchrun [-apps N] [-scale F] [-seed N] [-exp NAME] [-backend B] [-workers W]
//	         [-shards N] [-index-cache DIR] [-q]
//
// where NAME is one of: table1, fig1, fig7, fig8, fig9, headline,
// detection, cachestats, clinit, all (default); B selects the bytecode
// search backend (indexed, the default; sharded for per-dex index shards;
// or linear for the paper-faithful full-scan ablation); and W bounds how
// many apps are analyzed concurrently (default: all CPUs; results are
// identical for any W). -index-cache persists per-app dump+index bundles
// in DIR so repeated corpus runs skip disassembly and tokenization
// entirely; -q suppresses the per-app progress lines on stderr.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"backdroid/internal/appgen"
	"backdroid/internal/bcsearch"
	"backdroid/internal/core"
	"backdroid/internal/experiments"
)

func main() {
	var (
		apps       = flag.Int("apps", 144, "corpus size")
		scale      = flag.Float64("scale", 1.0, "app size scale factor")
		seed       = flag.Int64("seed", 20200523, "corpus seed")
		exp        = flag.String("exp", "all", "experiment to run")
		backend    = flag.String("backend", "indexed", "search backend: indexed, sharded or linear")
		workers    = flag.Int("workers", runtime.NumCPU(), "concurrent app analyses (results are worker-count independent)")
		shards     = flag.Int("shards", 0, "index shard count for -backend sharded (0 = auto)")
		indexCache = flag.String("index-cache", "", "directory for persistent dump+index bundles")
		quiet      = flag.Bool("q", false, "suppress per-app progress")
	)
	flag.Parse()
	if err := run(*apps, *scale, *seed, *exp, *backend, *workers, *shards, *indexCache, *quiet); err != nil {
		fmt.Fprintln(os.Stderr, "benchrun:", err)
		os.Exit(1)
	}
}

func run(apps int, scale float64, seed int64, exp, backend string, workers, shards int, indexCache string, quiet bool) error {
	if exp == "table1" {
		fmt.Print(experiments.Table1(seed).Render())
		return nil
	}

	kind, err := bcsearch.ParseBackend(backend)
	if err != nil {
		return err
	}
	bdOpts := core.DefaultOptions()
	bdOpts.SearchBackend = kind
	bdOpts.IndexShards = shards

	opts := appgen.CorpusOptions{Apps: apps, Seed: seed, SizeScale: scale}
	cfg := experiments.RunConfig{
		RunBackDroid:     true,
		RunWholeApp:      exp == "all" || exp == "fig8" || exp == "headline" || exp == "detection",
		RunCallGraph:     exp == "all" || exp == "fig1" || exp == "headline",
		BackDroidOptions: &bdOpts,
		Workers:          workers,
		IndexCacheDir:    indexCache,
	}
	if !quiet {
		cfg.Progress = os.Stderr
	}

	start := time.Now()
	fmt.Fprintf(os.Stderr, "generating and analyzing %d apps (scale %.2f, %s backend, %d workers)...\n",
		apps, scale, kind, workers)
	corpus, err := experiments.RunCorpus(opts, cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "corpus run finished in %v\n", time.Since(start))

	show := func(name string, render func() string) {
		if exp == "all" || exp == name {
			fmt.Println(render())
		}
	}
	show("table1", func() string { return experiments.Table1(seed).Render() })
	show("fig1", func() string { return experiments.Fig1(corpus).Render() })
	show("fig7", func() string { return experiments.Fig7(corpus).Render() })
	show("fig8", func() string { return experiments.Fig8(corpus).Render() })
	show("fig9", func() string { return experiments.Fig9(corpus).Render() })
	show("headline", func() string { return experiments.Headline(corpus).Render() })
	show("detection", func() string { return experiments.Detection(corpus).Render() })
	show("cachestats", func() string { return experiments.CacheStats(corpus).Render() })
	show("clinit", func() string { return experiments.ClinitCheck(corpus).Render() })
	return nil
}
