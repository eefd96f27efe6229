package experiments

import (
	"fmt"
	"io"
	"sync"

	"backdroid/internal/apk"
	"backdroid/internal/appgen"
	"backdroid/internal/core"
	"backdroid/internal/service"
	"backdroid/internal/simtime"
	"backdroid/internal/wholeapp"
)

// RunConfig selects which analyzers to run over the corpus.
type RunConfig struct {
	RunBackDroid bool
	RunWholeApp  bool
	RunCallGraph bool // FlowDroid-style CallGraphOnly pass (Fig. 1)
	// BackDroidOptions overrides the engine options (ablations); nil uses
	// DefaultOptions.
	BackDroidOptions *core.Options
	// Progress, when non-nil, receives one line per analyzed app.
	Progress io.Writer
	// Workers bounds how many apps are generated and analyzed
	// concurrently; values <= 1 run sequentially. Every app gets its own
	// generator, engines and work meter, and results land at the app's
	// corpus position, so reports and figures are identical for any
	// worker count — only wall time changes. Ignored when Scheduler is
	// set (the scheduler's pool bounds concurrency then).
	Workers int
	// Scheduler, when non-nil, submits the corpus to an existing batch
	// service scheduler instead of a private one, sharing its worker
	// pool, in-memory bundle store and event stream across calls: a
	// corpus replayed through one scheduler-with-store performs zero
	// disassembly and zero index builds on the second pass. Reports stay
	// bitwise identical to a private run.
	Scheduler *service.Scheduler
	// Tenant names the scheduler tenant the corpus is submitted under
	// ("" = the default tenant). With a multi-tenant scheduler this lets
	// several RunCorpus calls share one service as independent streams:
	// each gets its own bounded queue and weighted dispatch share, and
	// the per-corpus reports stay bitwise identical to a private run —
	// fair dispatch reorders work, never results.
	Tenant string
}

// AppRun bundles one app's artifacts and analysis outcomes.
type AppRun struct {
	Spec      appgen.Spec
	Truth     *appgen.GroundTruth
	BackDroid *core.Report
	WholeApp  *wholeapp.Report
	CallGraph *wholeapp.Report
}

// CorpusRun is the result of running the analyzers over a generated
// corpus; all figure/table experiments consume it.
type CorpusRun struct {
	Apps []AppRun
}

// RunCorpus generates every app of the corpus and runs the selected
// analyzers. It is a thin client of the batch service scheduler: every
// app becomes one job whose Source generates the app on the worker, so
// apps exist only while analyzed (memory stays bounded, like analyzing
// APKs off disk), no analysis state is shared across goroutines, and the
// results — collected in submission order — are bitwise identical for any
// worker count and to a pre-service sequential run. By default a private
// scheduler is created and torn down; cfg.Scheduler reuses a long-running
// one, bundle store and all.
func RunCorpus(opts appgen.CorpusOptions, cfg RunConfig) (*CorpusRun, error) {
	specs := appgen.EvalCorpus(opts)
	apps := make([]AppRun, len(specs))

	sched := cfg.Scheduler
	if sched == nil {
		sched = service.New(service.Config{Workers: cfg.Workers})
		defer sched.Close()
	}

	var (
		mu   sync.Mutex // guards done and cfg.Progress writes
		done int
	)
	ids := make([]service.JobID, len(specs))
	for i := range specs {
		i, spec := i, specs[i]
		job := service.Job{
			Name:   spec.Name,
			Tenant: cfg.Tenant,
			Source: func() (*apk.App, error) {
				app, truth, err := appgen.Generate(spec)
				if err != nil {
					return nil, fmt.Errorf("experiments: generating %s: %w", spec.Name, err)
				}
				// Only this job's worker writes the slot; the collection
				// loop reads it after Wait establishes happens-before.
				apps[i].Spec = spec
				apps[i].Truth = truth
				return app, nil
			},
			Options:      cfg.BackDroidOptions,
			RunBackDroid: cfg.RunBackDroid,
			RunWholeApp:  cfg.RunWholeApp,
			RunCallGraph: cfg.RunCallGraph,
		}
		if cfg.Progress != nil {
			job.Done = func(res *service.JobResult, err error) {
				if err != nil {
					return
				}
				mu.Lock()
				done++
				fmt.Fprintf(cfg.Progress, "  [%3d/%3d] %s done\n", done, len(specs), spec.Name)
				mu.Unlock()
			}
		}
		id, err := sched.Submit(job)
		if err != nil {
			return nil, err
		}
		ids[i] = id
	}

	// Collect in submission order: the error of the lowest corpus
	// position is reported, so failures are deterministic regardless of
	// worker scheduling (jobs past a failure still drain on the pool).
	for i, id := range ids {
		res, err := sched.Wait(id)
		if err != nil {
			return nil, err
		}
		apps[i].BackDroid = res.BackDroid
		apps[i].WholeApp = res.WholeApp
		apps[i].CallGraph = res.CallGraph
	}
	return &CorpusRun{Apps: apps}, nil
}

// BackDroidSamples extracts the per-app timing samples of the BackDroid
// runs.
func (r *CorpusRun) BackDroidSamples() []Sample {
	var out []Sample
	for _, a := range r.Apps {
		if a.BackDroid == nil {
			continue
		}
		out = append(out, Sample{
			App:      a.Spec.Name,
			Minutes:  a.BackDroid.Stats.SimMinutes,
			TimedOut: a.BackDroid.TimedOut,
		})
	}
	return out
}

// WholeAppSamples extracts the per-app timing samples of the baseline
// runs. Aborted runs (Err != nil) are excluded, matching the paper's
// handling of Amandroid's manifest-parsing failures.
func (r *CorpusRun) WholeAppSamples() []Sample {
	var out []Sample
	for _, a := range r.Apps {
		if a.WholeApp == nil || a.WholeApp.Err != nil {
			continue
		}
		out = append(out, Sample{
			App:      a.Spec.Name,
			Minutes:  a.WholeApp.Stats.SimMinutes,
			TimedOut: a.WholeApp.TimedOut,
		})
	}
	return out
}

// CallGraphSamples extracts the per-app timing samples of the
// CallGraphOnly runs.
func (r *CorpusRun) CallGraphSamples() []Sample {
	var out []Sample
	for _, a := range r.Apps {
		if a.CallGraph == nil || a.CallGraph.Err != nil {
			continue
		}
		out = append(out, Sample{
			App:      a.Spec.Name,
			Minutes:  a.CallGraph.Stats.SimMinutes,
			TimedOut: a.CallGraph.TimedOut,
		})
	}
	return out
}

// TimeoutBudgetMinutes is the evaluation timeout, re-exported for
// renderers.
const TimeoutBudgetMinutes = simtime.TimeoutMinutes
