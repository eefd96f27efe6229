// Command backdroidd is the long-running batch analysis service: a
// multi-tenant job queue over the BackDroid engine with an in-memory
// content-addressed bundle store, a settled-result report store, a
// durable job journal and cooperative in-flight cancellation.
// Re-analyses of an app the service has already seen perform zero
// disassembly, zero index builds and zero bundle disk I/O; resubmitting
// a settled (app, options) pair performs zero engine work at all — the
// report is served from the content-addressed settled tier in O(1). A
// restarted service replays its journal, finishes the queue it died
// with and repopulates the settled tier from the journal's persistent
// report section.
//
// Usage:
//
//	backdroidd [-workers N] [-queue N] [-store-budget BYTES] [-backend B]
//	           [-index-cache DIR] [-journal DIR] [-tenants SPEC]
//	           [-report-budget BYTES] [-http ADDR] [-nodes N] [-faults SPEC]
//	           [-trace FILE] [-stats] [-cpuprofile FILE] [-memprofile FILE]
//
// -backend B selects the bytecode search backend: indexed (the default,
// inverted-index lookups) or linear (the paper-faithful full-text scan).
//
// -nodes N runs the scheduler as a coordinator over a fault-tolerant
// fleet of N worker nodes: every dispatch takes a lease, every node
// analyzes against the one bundle store (budgeted by -store-budget), and
// a node that dies has its jobs handed off to surviving nodes with
// at-most-once terminal events. -faults SPEC arms a deterministic fault
// plan (see internal/faultinject):
//
//	backdroidd -nodes 4 -faults 'kill:node=2@50000,beat-drop:node=3@8000'
//
// The process exits gracefully on SIGTERM: in-flight jobs drain, the
// event stream and SSE subscribers receive their final events, the
// journal is flushed, and journaled queued jobs replay on the next
// start.
//
// -journal DIR makes the queue durable: submissions and outcomes are
// appended to DIR/journal.bdj, and on startup every job that was still
// pending when the previous process died is re-enqueued automatically
// (a "recovered jobs=N" line reports the replay). -tenants preconfigures
// tenant weights as comma-separated name=weight pairs (e.g.
// "paid=3,free=1"); unknown tenants are admitted at weight 1. Dispatch
// across tenants with queued work is deterministic weighted round-robin,
// so one tenant's backlog cannot head-of-line-block another's submits.
//
// -http ADDR additionally serves the typed HTTP/JSON gateway
// (internal/service/api): POST /v1/jobs, GET /v1/jobs/{id}, DELETE
// /v1/jobs/{id}, GET /v1/reports/{app}/{options}, GET /v1/stats, an SSE
// stream at GET /v1/events, Prometheus text at GET /metrics and one
// job's Chrome trace-event JSON at GET /v1/trace/{id} (with -trace).
// Both front ends drive one shared dispatcher, so a job submitted over
// HTTP streams its events to stdin subscribers and vice versa.
//
// -trace FILE records every job's simtime-anchored span timeline —
// engine phases, and in fleet mode the scheduler's dispatch/steal/
// handoff events — and writes it as Chrome trace-event JSON on exit;
// GET /v1/trace/{id} serves a single job's slice while the daemon is
// live. Tracing never changes a report or a charged unit.
//
// The service reads commands from stdin, one per line, and streams typed
// events to stdout as jobs progress:
//
//	submit [tenant=NAME] PATH   queue the app container at PATH
//	cancel ID                   cancel a queued or running job
//	stats                       print every registry series as a
//	                            `stats metric <id> <value>` line
//	recover                     re-enqueue journaled pending jobs (no-op
//	                            after the automatic startup replay)
//	die                         crash drill: stop dispatching and exit
//	                            without draining the queue (journaled
//	                            pending jobs replay on the next start)
//	die node=N                  fence fleet node N (with -nodes): the
//	                            daemon keeps serving, the node's job is
//	                            handed off to a surviving node
//	quit                        drain the queue and exit (EOF does the same)
//
// Events are printed as single lines: "queued"/"started"/"canceled" with
// the job id and app, one "sink" line per resolved sink (final verdict
// included — emitted while the job is still running), and a terminal
// "done" or "failed" line. Canceling a running job stops the engine at
// its next meter checkpoint; the job's terminal line is its single
// "canceled" event and no further sink lines follow it.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"

	"backdroid/internal/bcsearch"
	"backdroid/internal/core"
	"backdroid/internal/faultinject"
	"backdroid/internal/obs"
	"backdroid/internal/pprofutil"
	"backdroid/internal/service"
	"backdroid/internal/service/api"
	"backdroid/internal/service/journal"
)

// config carries the parsed CLI flags.
type config struct {
	workers      int
	queue        int
	storeBudget  int64
	reportBudget int64
	backend      string
	indexCache   string
	journalDir   string
	tenants      string
	httpAddr     string
	nodes        int
	faults       string
	trace        string
	stats        bool
	cpuprofile   string
	memprofile   string
}

func main() {
	var cfg config
	flag.IntVar(&cfg.workers, "workers", runtime.NumCPU(), "concurrent job analyses")
	flag.IntVar(&cfg.queue, "queue", 0, "per-tenant job queue depth (0 = 2x workers)")
	flag.Int64Var(&cfg.storeBudget, "store-budget", 256<<20,
		"in-memory bundle store byte budget, one store shared by every worker and\nfleet node (0 = unlimited, -1 = store disabled)")
	flag.Int64Var(&cfg.reportBudget, "report-budget", 64<<20,
		"settled-report store byte budget (0 = unlimited, -1 = settled tier disabled)")
	flag.StringVar(&cfg.backend, "backend", "indexed", "search backend: indexed or linear")
	flag.StringVar(&cfg.indexCache, "index-cache", "",
		"directory for persistent dump+index bundles (empty = memory only)")
	flag.StringVar(&cfg.journalDir, "journal", "",
		"directory for the durable job journal (empty = in-memory queue only)")
	flag.StringVar(&cfg.tenants, "tenants", "",
		"tenant weights as comma-separated name=weight pairs (e.g. paid=3,free=1)")
	flag.StringVar(&cfg.httpAddr, "http", "",
		"serve the HTTP/JSON gateway on this address (empty = stdin only)")
	flag.IntVar(&cfg.nodes, "nodes", 0,
		"run a fault-tolerant worker fleet of N nodes (0 = plain worker pool; overrides -workers)")
	flag.StringVar(&cfg.faults, "faults", "",
		"deterministic fault plan, e.g. 'kill:node=2@50000,beat-drop:node=3@8000'")
	flag.StringVar(&cfg.trace, "trace", "",
		"write a Chrome trace-event JSON timeline of every job to this file on exit")
	flag.BoolVar(&cfg.stats, "stats", true, "append cost counters to done lines")
	flag.StringVar(&cfg.cpuprofile, "cpuprofile", "", "write a CPU profile to this file")
	flag.StringVar(&cfg.memprofile, "memprofile", "",
		"write a heap profile to this file on exit (flushed on the SIGTERM drain too)")
	flag.Parse()
	if err := serve(os.Stdin, os.Stdout, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "backdroidd:", err)
		os.Exit(1)
	}
}

// parseTenants parses the -tenants flag into tenant configs.
func parseTenants(spec string) (map[string]service.TenantConfig, error) {
	if spec == "" {
		return nil, nil
	}
	out := make(map[string]service.TenantConfig)
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, ws, ok := strings.Cut(part, "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("-tenants wants name=weight pairs, got %q", part)
		}
		w, err := strconv.Atoi(ws)
		if err != nil || w < 1 {
			return nil, fmt.Errorf("-tenants weight for %q must be a positive integer, got %q", name, ws)
		}
		out[name] = service.TenantConfig{Weight: w}
	}
	return out, nil
}

// serve runs the command loop: it builds the shared dispatcher, forwards
// stdin commands to it (and, with -http, serves the gateway over the
// same dispatcher), and prints the event stream. Split from main so
// tests drive it with in-memory pipes.
func serve(in io.Reader, out io.Writer, cfg config) error {
	stopProfiles, err := pprofutil.Start(cfg.cpuprofile, cfg.memprofile)
	if err != nil {
		return err
	}
	// Every exit path — quit, EOF, die and the SIGTERM drain — returns
	// through here, so the profiles are always flushed.
	defer stopProfiles()
	backend, err := bcsearch.ParseBackend(cfg.backend)
	if err != nil {
		return err
	}
	tenants, err := parseTenants(cfg.tenants)
	if err != nil {
		return err
	}
	opts := core.DefaultOptions()
	opts.SearchBackend = backend
	opts.IndexCacheDir = cfg.indexCache

	var faults *faultinject.Plan
	if cfg.faults != "" {
		faults, err = faultinject.Parse(cfg.faults)
		if err != nil {
			return err
		}
	}
	var store *service.BundleStore
	if cfg.storeBudget >= 0 {
		store = service.NewBundleStore(cfg.storeBudget)
	}
	var jnl *journal.Journal
	if cfg.journalDir != "" {
		j, _, err := journal.Open(cfg.journalDir)
		if err != nil {
			return err
		}
		jnl = j
		defer jnl.Close()
	}
	var reports *service.ReportStore
	if cfg.reportBudget >= 0 {
		reports = service.NewReportStore(cfg.reportBudget)
		if jnl != nil {
			// The journal's persistent report section: settled reports
			// survive restarts, so a resubmission of yesterday's corpus
			// is answered without touching the engine.
			reports.AttachJournal(jnl)
			reports.Recover()
		}
	}
	var trace *obs.Trace
	if cfg.trace != "" {
		trace = obs.NewTrace()
	}
	d := api.NewDispatcher(service.Config{
		Workers:    cfg.workers,
		QueueDepth: cfg.queue,
		Tenants:    tenants,
		Options:    &opts,
		Store:      store,
		Journal:    jnl,
		Reports:    reports,
		Nodes:      cfg.nodes,
		Faults:     faults,
		Trace:      trace,
	})

	// One writer goroutine serializes event lines against command
	// responses (both print through mu).
	var mu sync.Mutex
	printf := func(format string, args ...any) {
		mu.Lock()
		fmt.Fprintf(out, format, args...)
		mu.Unlock()
	}
	sub := d.Subscribe()
	var drain sync.WaitGroup
	drain.Add(1)
	go func() {
		defer drain.Done()
		for {
			ev, ok := sub.Next()
			if !ok {
				return
			}
			printf("%s", api.EventLine(ev, cfg.stats))
		}
	}()

	if cfg.httpAddr != "" {
		ln, err := net.Listen("tcp", cfg.httpAddr)
		if err != nil {
			d.Close()
			drain.Wait()
			return err
		}
		srv := &http.Server{Handler: api.NewHandler(d)}
		go srv.Serve(ln)
		defer srv.Close()
		printf("http addr=%s\n", ln.Addr())
	}

	// Startup replay: re-enqueue the queue the previous process died
	// with. The replayed jobs stream queued/started/... events exactly
	// like fresh submits, under their original ids.
	if jnl != nil {
		rec, _ := d.Recover()
		printf("recovered jobs=%d\n", rec.Jobs)
	}

	// Graceful shutdown on SIGTERM: in-flight jobs drain, the event
	// stream (stdout printer and SSE subscribers) receives its final
	// events, the journal is flushed on the deferred Close, and journaled
	// queued jobs replay on the next start. Commands are read on their
	// own goroutine so the loop can select between stdin and the signal.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM)
	defer signal.Stop(sigc)

	type input struct {
		cmd api.Command
		err error // scanner error; delivered with the channel close
		eof bool
	}
	cmds := make(chan input, 1)
	go func() {
		sc := bufio.NewScanner(in)
		sc.Buffer(make([]byte, api.MaxRequestBytes), api.MaxRequestBytes)
		for sc.Scan() {
			cmd, err := api.ParseLine(sc.Text())
			if err != nil {
				printf("error: %v\n", err)
				continue
			}
			if cmd.Kind == api.CmdNone {
				continue
			}
			cmds <- input{cmd: cmd}
		}
		cmds <- input{err: sc.Err(), eof: true}
	}()

	abandon := false // die (and SIGTERM): exit without draining the queue
loop:
	for {
		var cmd api.Command
		select {
		case sig := <-sigc:
			printf("signal %v: draining in-flight jobs\n", sig)
			abandon = true
			break loop
		case in := <-cmds:
			if in.eof {
				if in.err != nil {
					d.Close()
					drain.Wait()
					return in.err
				}
				break loop
			}
			cmd = in.cmd
		}
		switch cmd.Kind {
		case api.CmdQuit:
			break loop
		case api.CmdDie:
			if cmd.Node > 0 {
				// Fence one fleet node; the daemon keeps serving.
				if err := d.KillNode(cmd.Node); err != nil {
					printf("error: %v\n", err)
					continue
				}
				printf("node killed node=%d\n", cmd.Node)
				continue
			}
			abandon = true
			break loop
		case api.CmdStats:
			printf("%s", api.StatsLines(d.Stats(api.StatsRequest{})))
		case api.CmdRecover:
			rec, err := d.Recover()
			if err != nil {
				printf("error: %v\n", err)
				continue
			}
			printf("recovered jobs=%d\n", rec.Jobs)
		case api.CmdCancel:
			if _, err := d.Cancel(cmd.Cancel); err != nil {
				printf("error: %v\n", err)
			}
		case api.CmdSubmit:
			if _, err := d.Submit(cmd.Submit); err != nil {
				printf("error: submit %s: %v\n", cmd.Submit.Path, err)
			}
		}
	}

	if abandon {
		// Crash drill (die) and SIGTERM: stop dispatching, finish only
		// the running jobs, abandon the rest of the queue. With a journal
		// the abandoned jobs stay pending on disk and replay on the next
		// start.
		d.Halt()
		drain.Wait()
		return saveTrace(cfg.trace, trace)
	}
	d.Close()
	drain.Wait()
	printf("%s", api.StatsLines(d.Stats(api.StatsRequest{})))
	return saveTrace(cfg.trace, trace)
}

// saveTrace writes the recorded timeline as Chrome trace-event JSON.
// Both exit paths funnel through here, so a crash drill still leaves a
// timeline of everything that ran before the drill.
func saveTrace(path string, trace *obs.Trace) error {
	if trace == nil || path == "" {
		return nil
	}
	if err := obs.WriteChromeFile(path, trace); err != nil {
		return fmt.Errorf("-trace: %w", err)
	}
	return nil
}
