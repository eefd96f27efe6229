// Command backdroid analyzes app containers with the BackDroid targeted
// analysis engine and prints the per-sink report.
//
// Usage:
//
//	backdroid [-subclass-sinks] [-timeout MIN] [-ssg] [-backend B] [-workers W]
//	          [-index-cache DIR] [-store-budget BYTES]
//	          [-stats=false] [-delta] [-nodes N] [-faults SPEC] [-trace FILE]
//	          [-cpuprofile FILE] [-memprofile FILE] app.apk...
//
// Every mode is one run of the service scheduler (internal/service):
// each listed app is a job, and reports print in argument order. -workers
// sets the scheduler's worker count; -nodes N instead analyzes the corpus
// on a fault-tolerant fleet of N worker nodes: dispatches are leased,
// and nodes killed by a -faults plan hand their jobs off to survivors —
// reports stay byte-identical to a fault-free run. -faults SPEC is a
// deterministic fault plan (see internal/faultinject) and needs -nodes,
// e.g.
//
//	backdroid -nodes 4 -store-budget 0 -faults 'kill:node=2@50000' apps/*.apk
//
// B selects the bytecode search backend: indexed (default, inverted-index
// lookups) or linear (paper-faithful full-text scan). W bounds how many
// of the listed apps are analyzed concurrently; reports are always
// printed in argument order and are identical for any W. -index-cache
// persists each app's
// dump+index bundle in DIR so re-analyses skip disassembly and
// tokenization entirely (a fully warm start).
// -store-budget shares one in-memory content-addressed bundle store
// across the listed apps and every worker or fleet node (listing an app
// twice makes the second analysis fully warm with zero disk I/O);
// cmd/backdroidd keeps such a store alive across submissions.
// -stats=false suppresses the cost/statistics lines, leaving only the
// deterministic detection report (useful for diffing backends against
// each other).
//
// -delta treats the listed containers as successive versions of one app
// (base first) and analyzes each update incrementally against its
// predecessor's bundle: the engine diffs the per-class manifests,
// carries over every settled sink verdict whose recorded footprint
// cannot observe the update, and re-analyzes only the sinks the changed
// classes can affect. Verdicts are identical to a cold analysis of each
// version; only the charged cost shrinks. The versions are submitted one
// at a time under one job name (the base's path), each after its
// predecessor finished, and the scheduler supplies the delta base.
// -delta and -nodes are mutually exclusive.
//
// -trace FILE records a simtime-anchored span trace of the run — the
// scheduler's queue and dispatch instants and engine phases per job, and
// in fleet mode its steal/handoff events — and writes it as Chrome
// trace-event JSON (load it at chrome://tracing or ui.perfetto.dev). Timestamps are
// charged work units on per-job tracks, never wall time, so two runs of
// one corpus and seed write byte-identical files; tracing never changes
// a report or a charged unit.
//
// An interrupt (Ctrl-C) cancels the in-flight analyses cooperatively:
// every engine stops at its next meter checkpoint (within
// simtime.CancelCheckpointUnits of charged work), apps not yet analyzed
// print a CANCELED marker, and the command exits nonzero — the one-shot
// CLI's version of the service's running-job cancellation.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"sync/atomic"

	"backdroid/internal/apk"
	"backdroid/internal/bcsearch"
	"backdroid/internal/core"
	"backdroid/internal/faultinject"
	"backdroid/internal/obs"
	"backdroid/internal/pprofutil"
	"backdroid/internal/service"
)

// config carries the parsed CLI flags.
type config struct {
	subclassSinks bool
	timeout       float64
	showSSG       bool
	backend       string
	workers       int
	indexCache    string
	storeBudget   int64
	stats         bool
	delta         bool
	nodes         int
	faults        string
	trace         string
	cpuprofile    string
	memprofile    string
}

func main() {
	var cfg config
	flag.BoolVar(&cfg.subclassSinks, "subclass-sinks", false,
		"resolve sink APIs invoked through app subclasses of system classes")
	flag.Float64Var(&cfg.timeout, "timeout", 0, "simulated-minute budget (0 = none)")
	flag.BoolVar(&cfg.showSSG, "ssg", false, "dump the self-contained slicing graph per sink")
	flag.StringVar(&cfg.backend, "backend", "indexed", "search backend: indexed or linear")
	flag.IntVar(&cfg.workers, "workers", runtime.NumCPU(),
		"concurrent app analyses (reports stay in argument order)")
	flag.StringVar(&cfg.indexCache, "index-cache", "",
		"directory for persistent dump+index bundles (empty = disabled)")
	flag.Int64Var(&cfg.storeBudget, "store-budget", -1,
		"share an in-memory content-addressed bundle store across the listed apps,\nwith this byte budget (0 = unlimited, -1 = disabled)")
	flag.BoolVar(&cfg.stats, "stats", true,
		"print cost/statistics lines (disable for deterministic backend diffs)")
	flag.BoolVar(&cfg.delta, "delta", false,
		"treat the listed apps as successive versions of one app and analyze\neach update incrementally against its predecessor")
	flag.IntVar(&cfg.nodes, "nodes", 0,
		"analyze on a fault-tolerant worker fleet of N nodes (0 = plain pool)")
	flag.StringVar(&cfg.faults, "faults", "",
		"deterministic fault plan for -nodes, e.g. 'kill:node=2@50000'")
	flag.StringVar(&cfg.trace, "trace", "",
		"write a Chrome trace-event JSON timeline of the run to this file")
	flag.StringVar(&cfg.cpuprofile, "cpuprofile", "", "write a CPU profile to this file")
	flag.StringVar(&cfg.memprofile, "memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: backdroid [flags] app.apk...")
		flag.PrintDefaults()
		os.Exit(2)
	}
	if err := run(flag.Args(), cfg); err != nil {
		fmt.Fprintln(os.Stderr, "backdroid:", err)
		os.Exit(1)
	}
}

func run(paths []string, cfg config) error {
	stopProfiles, err := pprofutil.Start(cfg.cpuprofile, cfg.memprofile)
	if err != nil {
		return err
	}
	defer stopProfiles()
	backend, err := bcsearch.ParseBackend(cfg.backend)
	if err != nil {
		return err
	}
	if cfg.nodes > 0 && cfg.delta {
		return fmt.Errorf("-delta and -nodes are mutually exclusive (the version chain is inherently sequential)")
	}
	if cfg.faults != "" && cfg.nodes == 0 {
		return fmt.Errorf("-faults needs -nodes (a fault plan targets fleet nodes and leases)")
	}
	opts := core.DefaultOptions()
	opts.SearchBackend = backend
	opts.ResolveSinkSubclasses = cfg.subclassSinks
	opts.TimeoutMinutes = cfg.timeout
	opts.IndexCacheDir = cfg.indexCache
	scfg := service.Config{Workers: cfg.workers, Options: &opts, Nodes: cfg.nodes}
	if cfg.faults != "" {
		if scfg.Faults, err = faultinject.Parse(cfg.faults); err != nil {
			return err
		}
	}
	switch {
	case cfg.storeBudget >= 0:
		// One content-addressed store for the whole invocation: listing
		// the same app twice makes the second analysis fully warm.
		scfg.Store = service.NewBundleStore(cfg.storeBudget)
	case cfg.delta:
		// The delta chain needs each predecessor's bundle; a private
		// unlimited store holds them for the invocation.
		scfg.Store = service.NewBundleStore(0)
	}
	if cfg.trace != "" {
		scfg.Trace = obs.NewTrace()
	}

	// Cooperative interrupt handling: the first Ctrl-C flips a flag every
	// engine's meter polls at its checkpoints, so in-flight analyses stop
	// within one checkpoint instead of dying mid-write; a second Ctrl-C
	// falls through to the default hard kill.
	var interrupted atomic.Bool
	opts.Checkpoint = func(int64, int64) bool { return interrupted.Load() }
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt)
	defer signal.Stop(sigc)
	go func() {
		if _, ok := <-sigc; ok {
			interrupted.Store(true)
			signal.Stop(sigc)
		}
	}()

	sched := service.New(scfg)
	err = analyzeAll(sched, paths, cfg)
	sched.Close()
	if cfg.stats {
		printFleet(sched.Metrics().Snapshot())
	}
	return saveTrace(err, cfg.trace, scfg.Trace)
}

// analyzeAll submits every app as one scheduler job and prints the
// reports in argument order, stopping at the first failure. Under
// -delta the versions form one job name and each is submitted only
// after its predecessor finished, so the scheduler hands the
// predecessor's bundle and report to the engine as the delta base; a
// version whose base proves unusable (timed out, evicted, damaged
// bundle) silently runs full — never wrong, at worst cold.
func analyzeAll(sched *service.Scheduler, paths []string, cfg config) error {
	ids := make([]service.JobID, len(paths))
	submit := func(i int) (err error) {
		path, name := paths[i], paths[i]
		if cfg.delta {
			name = paths[0]
		}
		ids[i], err = sched.Submit(service.Job{
			Name:         name,
			Spec:         path,
			Source:       func() (*apk.App, error) { return apk.Load(path) },
			RunBackDroid: true,
		})
		return err
	}
	if !cfg.delta {
		for i := range paths {
			if err := submit(i); err != nil {
				return err
			}
		}
	}
	canceled := 0
	for i, path := range paths {
		if cfg.delta {
			if err := submit(i); err != nil {
				return err
			}
		}
		res, err := sched.Wait(ids[i])
		switch {
		case errors.Is(err, service.ErrCanceled):
			fmt.Printf("== %s ==\n  CANCELED (stopped at a meter checkpoint)\n", path)
			if cfg.delta {
				// Later versions have no predecessor to run against.
				return fmt.Errorf("interrupted: %d of %d analyses canceled", len(paths)-i, len(paths))
			}
			canceled++
		case err != nil:
			return err
		default:
			printReport(res.BackDroid, cfg)
		}
	}
	if canceled > 0 {
		return fmt.Errorf("interrupted: %d of %d analyses canceled", canceled, len(paths))
	}
	return nil
}

// printFleet prints the fleet and steal ledgers from the scheduler's
// metrics registry; no-op without a fleet.
func printFleet(m obs.Snapshot) {
	if _, ok := m.Get("backdroid_fleet_nodes"); !ok {
		return
	}
	v := func(name string) int64 {
		n, _ := m.Get("backdroid_fleet_" + name)
		return n
	}
	fmt.Printf("fleet: %d nodes (%d live, %d killed); %d handoffs, %d expired leases; %d units lost, %d overhead\n",
		v("nodes"), v("live"), v("killed_total"), v("handoffs_total"), v("expired_leases_total"),
		v("lost_units"), v("overhead_units"))
	fmt.Printf("steal: %d chunks off %d victims, %d sinks moved, %d units charged; makespan %d units\n",
		v("steals_total"), v("steal_victims_total"), v("stolen_sinks_total"), v("steal_units"), v("makespan_units"))
}

// saveTrace writes the recorded trace as Chrome trace-event JSON; a
// write failure surfaces only when the run itself succeeded. No-op when
// tracing is off.
func saveTrace(runErr error, path string, trace *obs.Trace) error {
	if trace == nil {
		return runErr
	}
	err := obs.WriteChromeFile(path, trace)
	if runErr != nil {
		return runErr
	}
	return err
}

func printReport(r *core.Report, cfg config) {
	fmt.Printf("== %s ==\n", r.App)
	if r.TimedOut {
		fmt.Println("  TIMED OUT")
	}
	for _, s := range r.Sinks {
		status := "unreachable"
		if s.Reachable {
			status = "reachable"
		}
		verdict := ""
		if s.Insecure {
			verdict = "  [INSECURE: " + s.Call.Sink.Rule.String() + "]"
		}
		fmt.Printf("  sink %s\n    in %s (%s)%s\n",
			s.Call.Sink.Method.SootSignature(), s.Call.Caller.SootSignature(), status, verdict)
		for _, v := range s.Values {
			fmt.Printf("    value: %s\n", v)
		}
		for _, en := range s.Entries {
			fmt.Printf("    entry: %s\n", en.SootSignature())
		}
		if cfg.showSSG && s.SSG != nil {
			fmt.Println(indent(s.SSG.String(), "    "))
		}
	}
	if !cfg.stats {
		return
	}
	st := r.Stats
	fmt.Printf("  stats: %d sink calls, %.2f sim-min, wall %v, %d methods analyzed\n",
		st.SinkCallsTotal, st.SimMinutes, st.WallTime.Round(1e6), st.MethodsAnalyzed)
	fmt.Printf("  search: %d commands, %.1f%% cache rate; sink cache %.1f%%; loops: %v\n",
		st.Search.Commands, st.Search.Rate()*100, st.SinkCacheRate()*100, st.Loops)
	if st.Search.IndexBuilds > 0 {
		fmt.Printf("  index: built over %d lines; %d postings visited\n",
			st.Search.IndexLines, st.Search.PostingsScanned)
	}
	if st.Search.IndexCacheHits > 0 || st.Search.IndexCacheMisses > 0 {
		fmt.Printf("  index cache: %d hits, %d misses; %d postings visited\n",
			st.Search.IndexCacheHits, st.Search.IndexCacheMisses, st.Search.PostingsScanned)
	}
	if st.DumpCacheHits > 0 || st.DumpCacheMisses > 0 {
		fmt.Printf("  dump cache: %d hits, %d misses; load charged %d units, %d lines disassembled\n",
			st.DumpCacheHits, st.DumpCacheMisses, st.DumpCacheUnits, st.DumpLinesDisassembled)
	}
	if st.BundleStoreHits > 0 || st.BundleStoreMisses > 0 {
		fmt.Printf("  bundle store: %d hits, %d misses\n", st.BundleStoreHits, st.BundleStoreMisses)
	}
	if st.DeltaRun() {
		fmt.Printf("  delta: %d sinks reused, %d re-run; %d dump lines at reuse rate\n",
			st.SinksReused, st.SinksRerun, st.DeltaReusedLines)
	}
	if st.CancelPolls > 0 {
		fmt.Printf("  cancellation: %d checkpoint polls\n", st.CancelPolls)
	}
}

func indent(s, pad string) string {
	out := pad
	for _, r := range s {
		out += string(r)
		if r == '\n' {
			out += pad
		}
	}
	return out
}
