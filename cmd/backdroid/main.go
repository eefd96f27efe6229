// Command backdroid analyzes app containers with the BackDroid targeted
// analysis engine and prints the per-sink report.
//
// Usage:
//
//	backdroid [-subclass-sinks] [-timeout MIN] [-ssg] [-backend B] [-workers W]
//	          [-shards N] [-index-cache DIR] [-store-budget BYTES]
//	          [-stats=false] [-delta] [-nodes N] [-faults SPEC] [-trace FILE]
//	          [-cpuprofile FILE] [-memprofile FILE] app.apk...
//
// -nodes N analyzes the corpus on a fault-tolerant fleet of N worker
// nodes (the service scheduler's coordinator path): dispatches are
// leased, bundles are consistent-hashed across per-node partitions
// (budgeted by -store-budget; -1 runs storeless), and nodes killed by a
// -faults plan hand their jobs off to survivors — reports stay
// byte-identical to a fault-free run, in argument order. -faults SPEC is
// a deterministic fault plan (see internal/faultinject), e.g.
//
//	backdroid -nodes 4 -store-budget 0 -faults 'kill:node=2@50000' apps/*.apk
//
// B selects the bytecode search backend: indexed (default, inverted-index
// lookups), sharded (per-classesN.dex index shards, built concurrently) or
// linear (paper-faithful full-text scan). W bounds how many of the listed
// apps are analyzed concurrently; reports are always printed in argument
// order and are identical for any W. -shards overrides the sharded
// backend's shard count (0 = auto). -index-cache persists each app's
// dump+index bundle in DIR so re-analyses skip disassembly and
// tokenization entirely (a fully warm start).
// -store-budget shares an in-memory content-addressed bundle store across
// the listed apps (listing an app twice makes the second analysis fully
// warm with zero disk I/O); cmd/backdroidd keeps such a store alive
// across submissions. -stats=false suppresses the cost/statistics lines,
// leaving only the deterministic detection report (useful for diffing
// backends against each other).
//
// -delta treats the listed containers as successive versions of one app
// (base first) and analyzes each update incrementally against its
// predecessor's bundle: the engine diffs the per-class shard manifests,
// carries over every settled sink verdict whose recorded footprint
// cannot observe the update, and re-analyzes only the sinks the changed
// classes can affect. Verdicts are identical to a cold analysis of each
// version; only the charged cost shrinks. Apps are analyzed sequentially
// in argument order (the chain is inherently ordered).
//
// -trace FILE records a simtime-anchored span trace of the run — engine
// phases per job, and in fleet mode the scheduler's queue/dispatch/
// steal/handoff events — and writes it as Chrome trace-event JSON
// (load it at chrome://tracing or ui.perfetto.dev). Timestamps are
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
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"sync/atomic"

	"backdroid/internal/apk"
	"backdroid/internal/bcsearch"
	"backdroid/internal/core"
	"backdroid/internal/dexdump"
	"backdroid/internal/faultinject"
	"backdroid/internal/obs"
	"backdroid/internal/pool"
	"backdroid/internal/pprofutil"
	"backdroid/internal/service"
	"backdroid/internal/simtime"
)

// config carries the parsed CLI flags.
type config struct {
	subclassSinks bool
	timeout       float64
	showSSG       bool
	backend       string
	workers       int
	shards        int
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
	flag.StringVar(&cfg.backend, "backend", "indexed", "search backend: indexed, sharded or linear")
	flag.IntVar(&cfg.workers, "workers", runtime.NumCPU(),
		"concurrent app analyses (reports stay in argument order)")
	flag.IntVar(&cfg.shards, "shards", 0,
		"index shard count for -backend sharded (0 = auto: per classesN.dex)")
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
	opts := core.DefaultOptions()
	opts.SearchBackend = backend
	opts.ResolveSinkSubclasses = cfg.subclassSinks
	opts.TimeoutMinutes = cfg.timeout
	opts.IndexShards = cfg.shards
	opts.IndexCacheDir = cfg.indexCache
	var store *service.BundleStore
	if cfg.storeBudget >= 0 && cfg.nodes == 0 {
		// One content-addressed store for the whole invocation: listing
		// the same app twice makes the second analysis fully warm.
		store = service.NewBundleStore(cfg.storeBudget)
		opts.Bundles = store
	}
	if cfg.delta && store == nil {
		// The delta chain needs each predecessor's bundle; a private
		// unlimited store holds them for the invocation.
		store = service.NewBundleStore(0)
		opts.Bundles = store
	}

	// Cooperative interrupt handling: the first Ctrl-C flips a flag every
	// engine's meter polls at its checkpoints, so in-flight analyses stop
	// within one checkpoint instead of dying mid-write; a second Ctrl-C
	// falls through to the default hard kill.
	var interrupted atomic.Bool
	opts.Cancel = interrupted.Load
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt)
	defer signal.Stop(sigc)
	go func() {
		if _, ok := <-sigc; ok {
			interrupted.Store(true)
			signal.Stop(sigc)
		}
	}()

	var trace *obs.Trace
	if cfg.trace != "" {
		trace = obs.NewTrace()
	}

	if cfg.nodes > 0 {
		if cfg.delta {
			return fmt.Errorf("-delta and -nodes are mutually exclusive (the version chain is inherently sequential)")
		}
		return saveTrace(runFleet(paths, cfg, opts, trace), cfg.trace, trace)
	}
	if cfg.delta {
		return saveTrace(runDelta(paths, cfg, opts, store, trace), cfg.trace, trace)
	}

	// Analyze concurrently, report in argument order. Every app gets its
	// own engine; errors keep their argument position so the first failure
	// reported is deterministic.
	reports := make([]*core.Report, len(paths))
	errs := pool.ForEach(len(paths), cfg.workers, func(i int) error {
		o := opts
		traceEngine(&o, trace, int64(i+1))
		var err error
		reports[i], err = analyze(paths[i], o, store)
		return err
	})

	canceled := 0
	for i := range paths {
		if errs[i] == simtime.ErrCanceled {
			canceled++
			fmt.Printf("== %s ==\n  CANCELED (stopped at a meter checkpoint)\n", paths[i])
			continue
		}
		if errs[i] != nil {
			return saveTrace(errs[i], cfg.trace, trace)
		}
		printReport(reports[i], cfg)
	}
	if canceled > 0 {
		return saveTrace(fmt.Errorf("interrupted: %d of %d analyses canceled", canceled, len(paths)), cfg.trace, trace)
	}
	return saveTrace(nil, cfg.trace, trace)
}

// traceEngine installs the per-job engine trace hooks: phase spans and
// one charged-units counter sample per meter checkpoint, on the job's
// main track. The hooks observe unit boundaries the engine reaches
// anyway; they never charge, so a traced report is bitwise-identical to
// an untraced one. No-op when tracing is off.
func traceEngine(o *core.Options, trace *obs.Trace, job int64) {
	if trace == nil {
		return
	}
	o.PhaseSpan = func(phase string, sink int, start, end int64) {
		sp := obs.Span{Job: job, Sub: 0, Name: phase, Cat: "engine",
			Start: start, Dur: end - start}
		if sink >= 0 {
			sp.Args = []obs.Arg{{Key: "sink", Value: fmt.Sprint(sink)}}
		}
		trace.Add(sp)
	}
	o.MeterCheckpoint = func(units, delta int64) {
		trace.AddCounter(obs.CounterSample{Job: job, TS: units, Value: units})
	}
}

// saveTrace writes the recorded trace as Chrome trace-event JSON; a
// write failure surfaces only when the run itself succeeded. No-op when
// tracing is off.
func saveTrace(runErr error, path string, trace *obs.Trace) error {
	if trace == nil {
		return runErr
	}
	f, err := os.Create(path)
	if err == nil {
		err = obs.WriteChrome(f, trace)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if runErr != nil {
		return runErr
	}
	return err
}

// runFleet analyzes the corpus on a fault-tolerant worker fleet — the
// service scheduler's coordinator path, driven one-shot. Each app is a
// job; a node killed by the -faults plan has its jobs handed off to
// surviving nodes, and reports print in argument order regardless of
// which node (or which attempt) produced them.
func runFleet(paths []string, cfg config, opts core.Options, trace *obs.Trace) error {
	var plan *faultinject.Plan
	if cfg.faults != "" {
		var err error
		plan, err = faultinject.Parse(cfg.faults)
		if err != nil {
			return err
		}
	}
	sched := service.New(service.Config{
		Nodes:           cfg.nodes,
		NodeStoreBudget: cfg.storeBudget,
		Faults:          plan,
		Options:         &opts,
		IndexCacheDir:   cfg.indexCache,
		Trace:           trace,
	})
	ids := make([]service.JobID, len(paths))
	for i, path := range paths {
		p := path
		id, err := sched.Submit(service.Job{
			Name:         p,
			Spec:         p,
			Source:       func() (*apk.App, error) { return apk.Load(p) },
			RunBackDroid: true,
		})
		if err != nil {
			sched.Close()
			return err
		}
		ids[i] = id
	}
	canceled := 0
	var firstErr error
	for i, id := range ids {
		res, err := sched.Wait(id)
		switch {
		case err == nil:
			printReport(res.BackDroid, cfg)
		case err == service.ErrCanceled:
			canceled++
			fmt.Printf("== %s ==\n  CANCELED (stopped at a meter checkpoint)\n", paths[i])
		default:
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	sched.Close()
	if cfg.stats {
		if fs := sched.FleetStats(); fs != nil {
			fmt.Printf("fleet: %d nodes (%d live, %d killed); %d handoffs, %d expired leases; %d units lost, %d overhead; bundle gets %d local / %d remote; %d fetch faults\n",
				fs.Nodes, fs.Live, fs.Killed, fs.Handoffs, fs.ExpiredLeases,
				fs.LostUnits, fs.OverheadUnits, fs.LocalGets, fs.RemoteGets, fs.FetchFaults)
			fmt.Printf("steal: %d chunks off %d victims, %d sinks moved, %d units charged; makespan %d units\n",
				fs.Steals, fs.StealVictims, fs.StolenSinks, fs.StealUnits, fs.MakespanUnits)
		}
	}
	if firstErr != nil {
		return firstErr
	}
	if canceled > 0 {
		return fmt.Errorf("interrupted: %d of %d analyses canceled", canceled, len(paths))
	}
	return nil
}

// runDelta analyzes the listed containers as one app's version chain:
// the first runs cold, every later one incrementally against its
// predecessor's bundle and report. A version whose base proves unusable
// (timed out, evicted, damaged bundle) silently runs full — never wrong,
// at worst cold.
func runDelta(paths []string, cfg config, opts core.Options, store *service.BundleStore, trace *obs.Trace) error {
	var prev *core.DeltaBase
	for i, path := range paths {
		app, err := apk.Load(path)
		if err != nil {
			return err
		}
		fp := dexdump.AppFingerprint(app.Dexes)
		o := opts
		traceEngine(&o, trace, int64(i+1))
		if prev != nil && prev.Fingerprint != fp {
			o.DeltaFrom = prev
		}
		engine, err := core.New(app, o)
		if err == nil {
			var rep *core.Report
			rep, err = engine.Analyze()
			if err == nil {
				printReport(rep, cfg)
				if data, ok := store.GetBundle(fp); ok && !rep.TimedOut {
					prev = &core.DeltaBase{Fingerprint: fp, Bundle: data, Report: rep}
				}
				continue
			}
		}
		if err == simtime.ErrCanceled {
			fmt.Printf("== %s ==\n  CANCELED (stopped at a meter checkpoint)\n", path)
			return fmt.Errorf("interrupted: %d of %d analyses canceled", len(paths)-i, len(paths))
		}
		return err
	}
	return nil
}

func analyze(path string, opts core.Options, store *service.BundleStore) (*core.Report, error) {
	app, err := apk.Load(path)
	if err != nil {
		return nil, err
	}
	if store != nil {
		// Single-flight per fingerprint, exactly like the service
		// scheduler: with the same app listed twice and workers > 1, the
		// first analysis performs the only cold build and the second
		// waits, then runs fully warm off the shared entry.
		fp := dexdump.AppFingerprint(app.Dexes)
		if !store.Contains(fp) {
			release := store.LockFingerprint(fp)
			defer release()
		}
	}
	engine, err := core.New(app, opts)
	if err != nil {
		return nil, err
	}
	return engine.Analyze()
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
		fmt.Printf("  index: built over %d lines (%d shards); %d postings visited, %d lines scanned (raw fallbacks)\n",
			st.Search.IndexLines, st.Search.ShardCount, st.Search.PostingsScanned, st.Search.LinesScanned)
	}
	if st.Search.IndexCacheHits > 0 || st.Search.IndexCacheMisses > 0 {
		fmt.Printf("  index cache: %d hits, %d misses (%d shards); %d postings visited\n",
			st.Search.IndexCacheHits, st.Search.IndexCacheMisses, st.Search.ShardCount, st.Search.PostingsScanned)
	}
	if st.DumpCacheHits > 0 || st.DumpCacheMisses > 0 {
		fmt.Printf("  dump cache: %d hits, %d misses; load charged %d units, %d lines disassembled\n",
			st.DumpCacheHits, st.DumpCacheMisses, st.DumpCacheUnits, st.DumpLinesDisassembled)
	}
	if st.BundleStoreHits > 0 || st.BundleStoreMisses > 0 {
		fmt.Printf("  bundle store: %d hits, %d misses\n", st.BundleStoreHits, st.BundleStoreMisses)
	}
	if st.ForwardMemoHits > 0 {
		fmt.Printf("  forward memo: %d evaluations reused\n", st.ForwardMemoHits)
	}
	if st.ShardsUnchanged+st.ShardsChanged > 0 {
		fmt.Printf("  delta: %d/%d shards unchanged; %d sinks reused, %d re-run; %d dump lines at reuse rate\n",
			st.ShardsUnchanged, st.ShardsUnchanged+st.ShardsChanged,
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
