package core

import (
	"testing"

	"backdroid/internal/apk"
	"backdroid/internal/appgen"
)

// benchCorpusContainers generates the wall-clock benchmark's 24-app
// corpus (seed 20200523, SizeScale 0.15) as container bytes.
func benchCorpusContainers(tb testing.TB) (names []string, containers [][]byte) {
	tb.Helper()
	for _, spec := range appgen.EvalCorpus(appgen.CorpusOptions{Apps: 24, Seed: 20200523, SizeScale: 0.15}) {
		app, _, err := appgen.Generate(spec)
		if err != nil {
			tb.Fatal(err)
		}
		data, err := app.Bytes()
		if err != nil {
			tb.Fatal(err)
		}
		names, containers = append(names, spec.Name), append(containers, data)
	}
	return names, containers
}

// BenchmarkColdCorpusJob measures the cold job of the cold-corpus
// workload, one op being every app of the 24-app bench corpus: read the
// container from memory, build the engine without a bundle (dex decode,
// disassembly) and analyze it (index build, sink search, slicing and
// propagation). It is the layer benchmark of cold preprocessing as a job
// pays for it.
func BenchmarkColdCorpusJob(b *testing.B) {
	names, containers := benchCorpusContainers(b)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		for i, data := range containers {
			app, err := apk.ReadBytes(names[i], data)
			if err != nil {
				b.Fatal(err)
			}
			e, err := New(app, DefaultOptions())
			if err != nil {
				b.Fatal(err)
			}
			r, err := e.Analyze()
			if err != nil {
				b.Fatal(err)
			}
			if r.Stats.DumpLinesDisassembled == 0 {
				b.Fatalf("%s: the job disassembled nothing: %+v", names[i], r.Stats)
			}
		}
	}
}
