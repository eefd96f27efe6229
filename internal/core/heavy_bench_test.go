package core

import (
	"testing"

	"backdroid/internal/apk"
	"backdroid/internal/appgen"
)

// BenchmarkHeavyOutlierCold measures one cold analysis of the heavy-tail
// corpus's 121-sink outlier (seed 20200523): read the container, build
// the engine (dex decode, disassembly) and analyze every sink. It is the
// layer benchmark of the backward slice and the forward pass, which
// dominate this app; allocations are the noise-free signal.
func BenchmarkHeavyOutlierCold(b *testing.B) {
	spec := appgen.HeavyTailCorpus(appgen.HeavyTailOptions{Seed: 20200523})[0]
	app, _, err := appgen.Generate(spec)
	if err != nil {
		b.Fatal(err)
	}
	data, err := app.Bytes()
	if err != nil {
		b.Fatal(err)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := apk.ReadBytes(spec.Name, data)
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
		if len(r.Sinks) != len(spec.Sinks) {
			b.Fatalf("analyzed %d sinks, want %d", len(r.Sinks), len(spec.Sinks))
		}
	}
}
