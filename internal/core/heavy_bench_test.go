package core

import (
	"testing"

	"backdroid/internal/apk"
	"backdroid/internal/appgen"
	"backdroid/internal/simtime"
)

// heavyOutlier generates heavy-tail's 121-sink outlier (seed 20200523)
// and returns its container bytes and sink count.
func heavyOutlier(b *testing.B) (string, []byte, int) {
	b.Helper()
	spec := appgen.HeavyTailCorpus(appgen.HeavyTailOptions{Seed: 20200523})[0]
	app, _, err := appgen.Generate(spec)
	if err != nil {
		b.Fatal(err)
	}
	data, err := app.Bytes()
	if err != nil {
		b.Fatal(err)
	}
	return spec.Name, data, len(spec.Sinks)
}

// BenchmarkHeavyOutlierCold measures one cold analysis of the heavy-tail
// corpus's 121-sink outlier (seed 20200523): read the container, build
// the engine (dex decode, disassembly) and analyze every sink. It is the
// layer benchmark of the backward slice and the forward pass, which
// dominate this app; allocations are the noise-free signal.
func BenchmarkHeavyOutlierCold(b *testing.B) {
	name, data, sinks := heavyOutlier(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := apk.ReadBytes(name, data)
		if err != nil {
			b.Fatal(err)
		}
		e, err := New(a, DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		r, err := e.Analyze()
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Sinks) != sinks {
			b.Fatalf("analyzed %d sinks, want %d", len(r.Sinks), sinks)
		}
	}
}

// BenchmarkStolenChunk measures a chunk stolen off the outlier: its back
// half, sinks [60, 121). cold is the chunk as a storeless thief without
// the job's handle would run it — read the container, decode, render,
// build the index, locate the sinks and analyze its range. shared runs
// it on the victim's app through the job's core.Shared handle, which an
// untimed victim run over the front half filled: no read, no decode, no
// render, no index build. Both charge the same units.
func BenchmarkStolenChunk(b *testing.B) {
	name, data, sinks := heavyOutlier(b)
	const from = 60
	chunk := func(b *testing.B, app *apk.App, sh *Shared, from, to int) {
		o := DefaultOptions()
		o.ChunkRange = &ChunkRange{From: from, To: to}
		o.Shared = sh
		e, err := New(app, o)
		if err != nil {
			b.Fatal(err)
		}
		r, err := e.Analyze()
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Sinks) != to-from {
			b.Fatalf("analyzed %d sinks, want %d", len(r.Sinks), to-from)
		}
	}
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			a, err := apk.ReadBytes(name, data)
			if err != nil {
				b.Fatal(err)
			}
			chunk(b, a, nil, from, sinks)
		}
	})
	b.Run("shared", func(b *testing.B) {
		a, err := apk.ReadBytes(name, data)
		if err != nil {
			b.Fatal(err)
		}
		sh := &Shared{App: a}
		chunk(b, a, sh, 0, from)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			chunk(b, a, sh, from, sinks)
		}
	})
}

// locatedOutlier builds a cold engine over the outlier and locates its
// sink calls: the state both phase benchmarks start from.
func locatedOutlier(b *testing.B, name string, data []byte, sinks int) (*Engine, []SinkCall) {
	b.Helper()
	a, err := apk.ReadBytes(name, data)
	if err != nil {
		b.Fatal(err)
	}
	e, err := New(a, DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	calls, err := e.locateSinkCalls()
	if err != nil {
		b.Fatal(err)
	}
	if len(calls) != sinks {
		b.Fatalf("located %d sinks, want %d", len(calls), sinks)
	}
	return e, calls
}

// backsliceAll runs the backslice phase of every located sink as Analyze
// does (each in its own footprint frame) and returns the sink reports.
func backsliceAll(b *testing.B, e *Engine, calls []SinkCall) []*SinkReport {
	out := make([]*SinkReport, len(calls))
	for i, call := range calls {
		e.rec.push()
		e.rec.class(call.Caller.Class)
		sr, err := e.prepareSinkCall(call)
		e.rec.pop()
		if err != nil {
			b.Fatal(err)
		}
		out[i] = sr
	}
	return out
}

// BenchmarkBackslice times the backslice phase alone (reachability and
// SSG construction for every sink) over the outlier, on an engine that
// has already located its sinks. Each op starts from a fresh engine, so
// no reachability or caller cache survives from the previous op; the
// engine's construction is not timed. Run it with -benchtime Nx: the
// untimed setup costs more than the op.
func BenchmarkBackslice(b *testing.B) {
	name, data, sinks := heavyOutlier(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e, calls := locatedOutlier(b, name, data, sinks)
		b.StartTimer()
		backsliceAll(b, e, calls)
	}
}

// BenchmarkConstprop times the forward pass alone over the SSGs of every
// reachable outlier sink. The SSGs are built once, untimed; the forward
// pass only reads them, so each op reruns it on a fresh meter.
func BenchmarkConstprop(b *testing.B) {
	name, data, sinks := heavyOutlier(b)
	e, calls := locatedOutlier(b, name, data, sinks)
	reports := backsliceAll(b, e, calls)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.meter = simtime.NewMeter()
		for j, sr := range reports {
			if !sr.Reachable {
				continue
			}
			if _, err := e.propagate(sr.SSG, calls[j]); err != nil {
				b.Fatal(err)
			}
		}
	}
}
