package main

import (
	"math/rand"
	"runtime/debug"
	"sort"
	"strconv"
	"sync"
	"time"
)

// The host this benchmark was calibrated on is a 2-vCPU guest whose
// speed drifts by tens of percent over tens of seconds as other guests
// load the cores and memory underneath it: back-to-back runs of the same
// code differed by 10-30% in wall and CPU time. The benchmark therefore
// times one pass of a fixed reference kernel right before and right after
// every timed stretch and divides the round's time metrics by the
// kernel's mean slowdown against refNominal. The kernel is the
// benchmark's own code, identical on every commit, map- and sort-heavy
// like the analysis, and allocation-free.
//
// A pass yields two slowdowns, as the host slows a program in two ways.
// Its process CPU time grows when the cores run slower (contended caches
// and memory); its wall time also grows when the guest's CPUs are not
// running at all (steal time), which the guest's kernel leaves out of
// process CPU time. Each metric is divided by the slowdown of its own
// kind: wall-time metrics by the wall slowdown, CPU-time metrics by the
// CPU slowdown. Dividing CPU time by the wall slowdown instead leaves
// the steal share in it: on a host whose steal varied from run to run
// that spread cpu_ms_per_app by 16-24% over ten runs, where the wall-time
// metrics stayed within their bounds (CALIBRATION.md).
const (
	// refNominal is one kernel pass on the calibration host, measured
	// with the step rates.
	refNominal = 7700 * time.Microsecond
	refKeys    = 20000
)

// reference is the kernel's state: one part per worker, so a pass loads
// both CPUs the way the workloads do.
type reference struct {
	parts []refPart
}

type refPart struct {
	m    map[string]int
	keys []string // the map's keys in a fixed random order
	buf  []string
	sum  int
}

func newReference() *reference {
	rng := rand.New(rand.NewSource(1))
	r := &reference{parts: make([]refPart, workers)}
	for i := range r.parts {
		p := &r.parts[i]
		p.m = make(map[string]int, refKeys)
		for len(p.keys) < refKeys {
			k := "ref." + strconv.FormatInt(rng.Int63(), 36)
			if _, dup := p.m[k]; !dup {
				p.m[k] = len(p.keys)
				p.keys = append(p.keys, k)
			}
		}
		p.buf = make([]string, refKeys)
	}
	return r
}

// slowdown is the host's speed against the calibration host over one or
// more kernel passes: about 1 there, above 1 when the host is slower.
type slowdown struct {
	wall float64 // the pass's wall time against refNominal
	cpu  float64 // the pass's process CPU time against refNominal per part
}

// measure times one kernel pass on every part at once. It first waits for
// a garbage collection in progress to finish and holds the next one off
// until the pass is done, so the program's garbage never slows the
// kernel; the wait is untimed, like the think time between a client's
// requests.
func (r *reference) measure() slowdown {
	old := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(old)
	c0 := cpuTime()
	start := time.Now()
	var wg sync.WaitGroup
	for i := range r.parts {
		wg.Add(1)
		go func(p *refPart) {
			defer wg.Done()
			p.pass()
		}(&r.parts[i])
	}
	wg.Wait()
	wall := time.Since(start)
	cpu := cpuTime() - c0
	return slowdown{
		wall: float64(wall) / float64(refNominal),
		cpu:  float64(cpu) / float64(refNominal) / float64(len(r.parts)),
	}
}

// pass looks every key up four times and sorts a copy of the keys.
func (p *refPart) pass() {
	for rep := 0; rep < 4; rep++ {
		for _, k := range p.keys {
			p.sum += p.m[k]
		}
	}
	copy(p.buf, p.keys)
	sort.Strings(p.buf)
}
