package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64 // run length: each workload makes stepsPerSecond steps per second
	rounds   int     // timed rounds: the rounds constant, fewer only in tests
	trace    bool
	workdir  string // scratch directory for journals ("" = system temp)
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the end-to-end metrics in print order with their
// units; all but setup_s are computed per round.
var endToEnd = []struct{ name, unit string }{
	{"apps_per_s", "jobs/s"},
	{"job_p50_ms", "ms"},
	{"job_p90_ms", "ms"},
	{"cpu_ms_per_app", "ms"},
	{"sim_units_per_app", "units"},
	{"alloc_mb_per_app", "MB"},
	{"peak_mem_mb", "MB"},
	{"setup_s", "s"},
}

const (
	// setups is how many times a --trace 0 run sets up; setup_s is their
	// median.
	setups = 3
	// rounds is how many timed rounds a run makes; every metric is the
	// median over them.
	rounds = 5
)

func main() {
	var (
		cfg   config
		trace int
		out   string
	)
	flag.StringVar(&cfg.workload, "workload", "all", "workload to run, or all (each in its own child process, untraced then traced)")
	flag.Int64Var(&cfg.seed, "seed", 20200523, "seed of the job submission order")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "run length: each workload makes a frozen number of steps per second of it (BENCHMARK.json's run_seconds)")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.StringVar(&cfg.workdir, "workdir", "", "scratch directory for journals (default: system temp)")
	flag.StringVar(&out, "out", "", "also write each result JSON line to this file")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fatal(fmt.Errorf("-trace must be 0 or 1, got %d", trace))
	}
	if cfg.seconds <= 0 {
		fatal(errors.New("-seconds must be positive"))
	}
	cfg.trace = trace == 1
	cfg.rounds = rounds

	var lines []string
	ok := true
	if cfg.workload == "all" {
		var err error
		lines, err = runAll(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "backdroidbench:", err)
			ok = false
		}
	} else {
		res, err := run(os.Stdout, cfg)
		if err != nil {
			fatal(err)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
		lines = []string{string(line)}
		ok = res.Correct
	}
	if out != "" {
		if err := os.WriteFile(out, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			fatal(err)
		}
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "backdroidbench:", err)
	os.Exit(1)
}

// runAll runs every workload in its own child process, first untraced
// and then traced, relays their output and returns their result lines.
func runAll(cfg config) ([]string, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var lines []string
	var errs []error
	for _, trace := range []string{"0", "1"} {
		for _, w := range workloads {
			var buf bytes.Buffer
			cmd := exec.Command(exe, "-workload", w.name, "-trace", trace,
				"-seed", strconv.FormatInt(cfg.seed, 10),
				"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-workdir", cfg.workdir)
			cmd.Stdout = io.MultiWriter(os.Stdout, &buf)
			cmd.Stderr = os.Stderr
			if err := cmd.Run(); err != nil {
				errs = append(errs, fmt.Errorf("%s trace=%s: %w", w.name, trace, err))
			}
			if out := strings.TrimSpace(buf.String()); out != "" {
				lines = append(lines, out[strings.LastIndexByte(out, '\n')+1:])
			}
		}
	}
	return lines, errors.Join(errs...)
}

// run sets the workload up, runs one untimed warm-up step and then the
// timed rounds, untraced (--trace 0) or alternating untraced and traced
// rounds followed by the layer probes (--trace 1). It prints a readable
// report to w and returns the result; a job that failed or reported a
// wrong verdict makes it incorrect.
func run(w io.Writer, cfg config) (*result, error) {
	wl, err := lookupWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	b := &bench{cfg: cfg, rng: rand.New(rand.NewSource(cfg.seed)), ref: newReference()}
	defer b.reset()

	n := setups
	if cfg.trace {
		n = 1
	}
	var setupS []float64
	for i := 0; i < n; i++ {
		b.reset()
		win := window{ref: b.ref}
		win.start()
		if err := wl.setup(b); err != nil {
			return nil, fmt.Errorf("%s setup: %w", wl.name, err)
		}
		win.stop()
		setupS = append(setupS, win.wall.Seconds()/win.slowdown().wall)
	}
	steps := max(1, int(math.Round(wl.stepsPerSecond*cfg.seconds/float64(cfg.rounds))))
	fmt.Fprintf(w, "backdroidbench workload=%s seed=%d trace=%t rounds=%d steps/round=%d clients=%d workers=%d\n",
		wl.name, cfg.seed, cfg.trace, cfg.rounds, steps, wl.clients, workers)

	// One untimed step runs every distinct input once before timing.
	if _, err := b.round(wl, 1, false); err != nil {
		return nil, err
	}
	var plain, traced []*round
	for i := 0; i < cfg.rounds; i++ {
		rd, err := b.round(wl, steps, false)
		if err != nil {
			return nil, err
		}
		plain = append(plain, rd)
		if cfg.trace {
			if rd, err = b.round(wl, steps, true); err != nil {
				return nil, err
			}
			traced = append(traced, rd)
		}
	}
	fmt.Fprintf(w, "jobs/round=%d  detection on %d distinct inputs: TP=%d FP=%d FN=%d (tolerated: subclassed sinks)\n",
		len(plain[0].outs), len(b.distinct()), b.found.tp, b.found.fp, b.found.fn)

	var metrics map[string]metric
	if cfg.trace {
		overhead := quantile(perRound(traced, "apps_per_s"), 0.5) / quantile(perRound(plain, "apps_per_s"), 0.5)
		metrics = layerMetrics(traced, overhead)
		pm, err := runProbes(b.distinct(), cfg.workdir, cfg.seconds)
		if err != nil {
			return nil, err
		}
		for k, v := range pm {
			metrics[k] = v
		}
		printLayers(w, metrics)
		printAccounting(w, metrics)
		printCalibration(w, metrics)
	} else {
		metrics = make(map[string]metric)
		fmt.Fprintf(w, "%-18s %12s %12s %12s  %s\n", "metric", "median", "q1", "q3", "unit")
		for _, e := range endToEnd {
			var xs []float64
			if e.name == "setup_s" {
				xs = setupS
			} else {
				xs = perRound(plain, e.name)
			}
			med := quantile(xs, 0.5)
			metrics[e.name] = metric{med, e.unit}
			fmt.Fprintf(w, "%-18s %12.4f %12.4f %12.4f  %s\n", e.name, med, quantile(xs, 0.25), quantile(xs, 0.75), e.unit)
		}
		for _, name := range []string{"slowdown_cpu", "slowdown_wall"} {
			slow := perRound(plain, name)
			fmt.Fprintf(w, "%-18s %12.4f %12.4f %12.4f  (host against calibration; times of its kind are divided by it)\n",
				name, quantile(slow, 0.5), quantile(slow, 0.25), quantile(slow, 0.75))
		}
	}
	fmt.Fprintf(w, "fail_rate=%g (%d failed of %d attempted jobs)\n",
		ratio(int64(b.failed), int64(b.attempted)), b.failed, b.attempted)
	for _, err := range b.errs {
		fmt.Fprintln(w, "  failure:", err)
	}
	return &result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: metrics}, nil
}

// round runs steps workload steps and verifies the jobs of each step
// after it, untimed, so no more than one step's reports are alive.
func (b *bench) round(wl *workload, steps int, traced bool) (*round, error) {
	rd := &round{win: window{ref: b.ref}}
	// Start every round from a collected heap, so garbage a previous
	// round left is not charged to this one.
	runtime.GC()
	for i := 0; i < steps; i++ {
		n := len(rd.outs)
		if err := wl.step(b, traced, rd); err != nil {
			return nil, err
		}
		b.verify(rd.outs[n:])
	}
	return rd, nil
}

// perRound computes one per-round metric for every round; wall- and
// CPU-time metrics are divided by the round's host slowdown for them.
func perRound(rounds []*round, name string) []float64 {
	xs := make([]float64, len(rounds))
	for i, rd := range rounds {
		n := float64(len(rd.outs))
		slow := rd.win.slowdown()
		switch name {
		case "slowdown_cpu":
			xs[i] = slow.cpu
		case "slowdown_wall":
			xs[i] = slow.wall
		case "apps_per_s":
			xs[i] = n / rd.win.wall.Seconds() * slow.wall
		case "job_p50_ms", "job_p90_ms":
			lat := make([]float64, len(rd.outs))
			for j, o := range rd.outs {
				lat[j] = float64(o.lat.Nanoseconds()) / 1e6
			}
			q := 0.5
			if name == "job_p90_ms" {
				q = 0.9
			}
			xs[i] = quantile(lat, q) / slow.wall
		case "cpu_ms_per_app":
			xs[i] = float64(rd.win.cpu.Nanoseconds()) / 1e6 / n / slow.cpu
		case "sim_units_per_app":
			var units int64
			for _, o := range rd.outs {
				units += o.stats.WorkUnits
			}
			xs[i] = float64(units) / n
		case "alloc_mb_per_app":
			xs[i] = float64(rd.win.alloc) / (1 << 20) / n
		case "peak_mem_mb":
			xs[i] = float64(rd.win.peak) / (1 << 20)
		default:
			panic("unknown per-round metric " + name)
		}
	}
	return xs
}

// printLayers prints the per-layer metrics in name order.
func printLayers(w io.Writer, m map[string]metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "%-36s %16.4f  %s\n", k, m[k].Value, m[k].Unit)
	}
}
