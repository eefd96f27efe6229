package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"time"

	"backdroid/internal/apk"
	"backdroid/internal/appgen"
	"backdroid/internal/core"
	"backdroid/internal/service"
	"backdroid/internal/service/journal"
)

const (
	// corpusSeed fixes the generated apps. The -seed flag permutes the
	// order jobs are submitted in, not the apps themselves: a corpus drawn
	// per seed changes app sizes and sink counts, which moves every
	// per-app metric by more than the bounds this benchmark gates on.
	corpusSeed = 20200523
	// clients is the number of closed-loop clients (heavy-tail: one client
	// submitting a burst), and workers the scheduler's workers (or fleet
	// nodes): both match the 2-CPU host the job counts were calibrated on.
	clients = 2
	workers = 2
	// resubmits is how many times update-stream resubmits each app's v2
	// after the delta job: each of them is a settled hit.
	resubmits = 3
)

// version is one distinct input: the APK bytes the program under test
// sees, the generator's ground truth and the canonical encoding of the
// reference cold run made during setup.
type version struct {
	name  string
	data  []byte
	truth *appgen.GroundTruth
	ref   []byte
}

// newVersion encodes a generated app and makes its reference cold run
// straight through the engine, checked against the ground truth.
func newVersion(app *apk.App, truth *appgen.GroundTruth) (*version, detection, error) {
	data, err := app.Bytes()
	if err != nil {
		return nil, detection{}, fmt.Errorf("encode %s: %w", app.Name, err)
	}
	read, err := apk.ReadBytes(app.Name, data)
	if err != nil {
		return nil, detection{}, fmt.Errorf("read %s: %w", app.Name, err)
	}
	e, err := core.New(read, core.DefaultOptions())
	if err != nil {
		return nil, detection{}, fmt.Errorf("reference run of %s: %w", app.Name, err)
	}
	rep, err := e.Analyze()
	if err != nil {
		return nil, detection{}, fmt.Errorf("reference run of %s: %w", app.Name, err)
	}
	d, err := score(rep, truth)
	if err != nil {
		return nil, detection{}, fmt.Errorf("reference run of %s: %w", app.Name, err)
	}
	return &version{name: app.Name, data: data, truth: truth, ref: canonical(rep)}, d, nil
}

// job builds the scheduler job for the version. With a trace it carries
// a per-job copy of the default options whose PhaseSpan hook, like the
// timestamps around the wrapped Source, feeds that job's recorder; both
// are fingerprint-neutral, so traced and untraced jobs share bundle and
// settled-report addresses.
func (v *version) job(tr *jobTrace) service.Job {
	name, data := v.name, v.data
	if tr == nil {
		return service.Job{Name: name, RunBackDroid: true,
			Source: func() (*apk.App, error) { return apk.ReadBytes(name, data) }}
	}
	o := core.DefaultOptions()
	o.PhaseSpan = tr.phase
	return service.Job{Name: name, RunBackDroid: true, Options: &o,
		Source: func() (*apk.App, error) {
			tr.mark(layerQueue, time.Now())
			app, err := apk.ReadBytes(name, data)
			tr.mark(layerRead, time.Now())
			return app, err
		}}
}

// outcome is one finished job. verify drops the report once checked and
// keeps only its Stats, so rounds do not pin every report's slicing
// graphs in memory.
type outcome struct {
	v           *version
	start, done time.Time     // the Submit call and the job's Done callback
	lat         time.Duration // done - start
	rep         *core.Report
	stats       core.Stats
	err         error
	tr          *jobTrace // nil when untraced
}

// submit submits the job of o.v. Its latency ends in its Done callback,
// which the scheduler runs on the worker right after journaling the
// job's terminal record, just before Wait returns. The client goroutine
// itself may wait up to the Go runtime's 10 ms preemption slice for a CPU
// while both workers are busy; ending at Wait's return made the
// heavy-tail median jump by that slice from run to run.
func (o *outcome) submit(s *service.Scheduler, traced bool) (service.JobID, error) {
	if traced {
		o.tr = newJobTrace()
	}
	job := o.v.job(o.tr)
	job.Done = func(*service.JobResult, error) {
		o.done = time.Now()
		if o.tr != nil {
			o.tr.mark(layerTail, o.done)
		}
	}
	o.start = time.Now()
	if o.tr != nil {
		o.tr.last = o.start
	}
	return s.Submit(job)
}

// wait waits for the job submit returned and records its result.
func (o *outcome) wait(s *service.Scheduler, id service.JobID, err error) {
	var res *service.JobResult
	if err == nil {
		res, err = s.Wait(id)
	}
	if o.done.IsZero() { // never dispatched: Submit failed
		o.done = time.Now()
	}
	o.lat = o.done.Sub(o.start)
	o.err = err
	if res != nil {
		o.rep = res.BackDroid
	}
}

// drive runs one job per version through the scheduler from `clients`
// closed-loop clients: each submits its next job only after Wait
// returned the previous one. Submits are serialized so jobs enter the
// scheduler in list order.
func drive(s *service.Scheduler, vs []*version, traced bool) []outcome {
	outs := make([]outcome, len(vs))
	var (
		mu   sync.Mutex // held across Submit: list order is submit order
		next int
		wg   sync.WaitGroup
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if next == len(vs) {
					mu.Unlock()
					return
				}
				o := &outs[next]
				o.v = vs[next]
				next++
				id, err := o.submit(s, traced)
				mu.Unlock()
				o.wait(s, id, err)
			}
		}()
	}
	wg.Wait()
	return outs
}

// burst submits one job per version, in list order, from a single client
// and then waits for each of them.
func burst(s *service.Scheduler, vs []*version, traced bool) []outcome {
	outs := make([]outcome, len(vs))
	ids := make([]service.JobID, len(vs))
	errs := make([]error, len(vs))
	for i, v := range vs {
		outs[i].v = v
		ids[i], errs[i] = outs[i].submit(s, traced)
	}
	for i := range outs {
		outs[i].wait(s, ids[i], errs[i])
	}
	return outs
}

// round is what one measured round collected.
type round struct {
	win  window    // the timed stretches only
	outs []outcome // the timed jobs

	// heavy-tail: bursts run and the fleet counters summed over them.
	bursts, steals, stolenSinks, makespan int64
	// update-stream: journal records and bytes appended while timed.
	appends, journalBytes int64
}

// workload is one set of inputs and the way they are driven. A round is
// a whole number of steps: a corpus pass, a heavy-tail burst or an
// update-stream scheduler life.
type workload struct {
	name string
	// stepsPerSecond is how many steps a run makes per second of
	// -seconds. It is frozen: a run does stepsPerSecond * seconds steps,
	// so its work never depends on how fast the code under test is. At
	// the calibration commit, on a 2-CPU host, cold-corpus and heavy-tail
	// make two seconds of timed work per second of -seconds: at one, the
	// spread of their latency medians over ten runs reached 9-11%, at two
	// 3-4%. warm-resubmit and update-stream make one, where their spreads
	// were already under 5%; update-stream's untimed priming makes its
	// runs as long as those of cold-corpus even so.
	stepsPerSecond float64
	clients        int // clients submitting the jobs
	setup          func(b *bench) error
	step           func(b *bench, traced bool, rd *round) error
}

var workloads = []*workload{
	{
		name:           "cold-corpus",
		clients:        clients,
		stepsPerSecond: 6,
		setup:          setupCold,
		step:           corpusStep,
	},
	{
		name:           "warm-resubmit",
		clients:        clients,
		stepsPerSecond: 6.5,
		setup:          setupWarm,
		step:           corpusStep,
	},
	{
		name:           "heavy-tail",
		clients:        1,
		stepsPerSecond: 22,
		setup:          setupHeavy,
		step:           heavyStep,
	},
	{
		name:           "update-stream",
		clients:        clients,
		stepsPerSecond: 2,
		setup:          setupUpdate,
		step:           updateStep,
	},
}

func lookupWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// bench is the state of one workload run.
type bench struct {
	cfg   config
	rng   *rand.Rand
	apps  []*version         // the corpus; heavy-tail: the outlier, then the small apps
	next  []*version         // update-stream: each app's v2, aligned with apps
	sched *service.Scheduler // cold-corpus, warm-resubmit: the run's scheduler
	found detection          // reference detection over the distinct inputs
	ref   *reference

	attempted, failed int
	errs              []error
}

// distinct lists every distinct input of the workload.
func (b *bench) distinct() []*version { return append(append([]*version(nil), b.apps...), b.next...) }

// reset drops the state a previous setup left.
func (b *bench) reset() {
	if b.sched != nil {
		b.sched.Close()
	}
	b.apps, b.next, b.sched, b.found = nil, nil, nil, detection{}
}

func (b *bench) shuffle(vs []*version) []*version {
	out := make([]*version, len(vs))
	for i, j := range b.rng.Perm(len(vs)) {
		out[i] = vs[j]
	}
	return out
}

// verify checks every outcome, counts the failures and drops the
// reports.
func (b *bench) verify(outs []outcome) {
	for i := range outs {
		o := &outs[i]
		b.attempted++
		err := o.err
		if err == nil {
			err = check(o.rep, o.v)
		}
		if o.rep != nil {
			o.stats, o.rep = o.rep.Stats, nil
		}
		if err != nil {
			b.failed++
			if len(b.errs) < 5 {
				b.errs = append(b.errs, err)
			}
		}
	}
}

// addVersions generates, encodes and reference-runs each spec (update,
// when non-nil, turns spec i into its v2) and appends the versions.
func (b *bench) addVersions(dst *[]*version, specs []appgen.Spec, update func(int, appgen.Spec) appgen.AppUpdateSpec) error {
	for i, spec := range specs {
		var (
			app   *apk.App
			truth *appgen.GroundTruth
			err   error
		)
		if update == nil {
			app, truth, err = appgen.Generate(spec)
		} else {
			app, truth, err = appgen.GenerateUpdate(update(i, spec))
		}
		if err != nil {
			return fmt.Errorf("generate %s: %w", spec.Name, err)
		}
		v, d, err := newVersion(app, truth)
		if err != nil {
			return err
		}
		b.found.add(d)
		*dst = append(*dst, v)
	}
	return nil
}

func corpusSpecs() []appgen.Spec {
	return appgen.EvalCorpus(appgen.CorpusOptions{Apps: 24, Seed: corpusSeed, SizeScale: 0.15})
}

// setupCold: no bundle store, report store or cache directory, so every
// job is a full cold analysis.
func setupCold(b *bench) error {
	if err := b.addVersions(&b.apps, corpusSpecs(), nil); err != nil {
		return err
	}
	b.sched = service.New(service.Config{Workers: workers})
	return nil
}

// setupWarm: one long-lived scheduler with an unbounded bundle store,
// primed by one pass, so every timed job is a store hit.
func setupWarm(b *bench) error {
	if err := b.addVersions(&b.apps, corpusSpecs(), nil); err != nil {
		return err
	}
	b.sched = service.New(service.Config{Workers: workers, Store: service.NewBundleStore(0)})
	b.verify(drive(b.sched, b.apps, false))
	return nil
}

// corpusStep runs one pass over the corpus in a seed-shuffled order.
func corpusStep(b *bench, traced bool, rd *round) error {
	order := b.shuffle(b.apps)
	rd.win.start()
	outs := drive(b.sched, order, traced)
	rd.win.stop()
	rd.outs = append(rd.outs, outs...)
	return nil
}

func setupHeavy(b *bench) error {
	specs := appgen.HeavyTailCorpus(appgen.HeavyTailOptions{SmallApps: 6, Seed: corpusSeed})
	return b.addVersions(&b.apps, specs, nil)
}

// heavyStep submits the outlier and then the small apps as one burst,
// from one client, to a fresh 2-node fleet with partitions disabled and
// default stealing, and waits for all of them. The order is fixed, not
// drawn from the seed: which small apps queue first decides the median
// latency, and a shuffled order moved it by 20% between seeds. For the same reason
// every burst starts from a collected heap: otherwise the previous
// burst's garbage lands a collection at a random point of the small
// apps' run, and the median moved by 15% between runs.
func heavyStep(b *bench, traced bool, rd *round) error {
	s := service.New(service.Config{Nodes: workers, NodeStoreBudget: -1})
	runtime.GC()
	rd.win.start()
	outs := burst(s, b.apps, traced)
	rd.win.stop()
	fs := s.FleetStats()
	s.Close()
	rd.outs = append(rd.outs, outs...)
	rd.bursts++
	rd.steals += fs.Steals
	rd.stolenSinks += fs.StolenSinks
	rd.makespan += fs.MakespanUnits
	return nil
}

// setupUpdate generates each corpus app's v2, cycling the three
// single-class mutation kinds.
func setupUpdate(b *bench) error {
	specs := corpusSpecs()
	if err := b.addVersions(&b.apps, specs, nil); err != nil {
		return err
	}
	kinds := appgen.Mutations()
	return b.addVersions(&b.next, specs, func(i int, spec appgen.Spec) appgen.AppUpdateSpec {
		return appgen.AppUpdateSpec{Base: spec, Mutation: kinds[i%len(kinds)], Seed: corpusSeed + int64(i)}
	})
}

// updateStep is one scheduler life: a fresh on-disk journal with the
// report store attached and a fresh bundle store, primed untimed with
// every app's v1. The timed part is 1+resubmits passes over every app's
// v2: the first pass runs delta jobs, the later ones are settled hits.
func updateStep(b *bench, traced bool, rd *round) (err error) {
	dir, err := os.MkdirTemp(b.cfg.workdir, "life-")
	if err != nil {
		return fmt.Errorf("update-stream: %w", err)
	}
	defer os.RemoveAll(dir)
	j, _, err := journal.Open(dir)
	if err != nil {
		return fmt.Errorf("update-stream: %w", err)
	}
	defer func() {
		if cerr := j.Close(); cerr != nil {
			err = errors.Join(err, fmt.Errorf("update-stream: %w", cerr))
		}
	}()
	reports := service.NewReportStore(0)
	reports.AttachJournal(j)
	s := service.New(service.Config{Workers: workers, Store: service.NewBundleStore(0), Journal: j, Reports: reports})
	defer s.Close()

	b.verify(drive(s, b.shuffle(b.apps), false))
	order := b.shuffle(b.next)
	before := j.Stats()
	for k := 0; k <= resubmits; k++ {
		rd.win.start()
		outs := drive(s, order, traced)
		rd.win.stop()
		rd.outs = append(rd.outs, outs...)
	}
	after := j.Stats()
	rd.appends += after.Appends - before.Appends
	rd.journalBytes += after.Bytes - before.Bytes
	return nil
}
