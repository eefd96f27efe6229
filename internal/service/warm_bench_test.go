package service

import (
	"testing"

	"backdroid/internal/apk"
	"backdroid/internal/appgen"
)

// BenchmarkWarmStoreHitJob measures one bundle-store-hit job end to end
// through the scheduler: read the container from memory, fingerprint it,
// decode the stored bundle and analyze. The app is the first of the
// 24-app evaluation corpus at SizeScale 0.15. The store is primed by one
// cold job outside the timer; every timed job must be a fully warm hit.
func BenchmarkWarmStoreHitJob(b *testing.B) {
	spec := appgen.EvalCorpus(appgen.CorpusOptions{Apps: 24, Seed: 20200523, SizeScale: 0.15})[0]
	app, _, err := appgen.Generate(spec)
	if err != nil {
		b.Fatal(err)
	}
	data, err := app.Bytes()
	if err != nil {
		b.Fatal(err)
	}
	s := New(Config{Workers: 1, Store: NewBundleStore(0)})
	defer s.Close()
	run := func() *JobResult {
		id, err := s.Submit(Job{Name: spec.Name, RunBackDroid: true,
			Source: func() (*apk.App, error) { return apk.ReadBytes(spec.Name, data) }})
		if err != nil {
			b.Fatal(err)
		}
		res, err := s.Wait(id)
		if err != nil {
			b.Fatal(err)
		}
		s.Forget(id)
		return res
	}
	run()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := run().BackDroid.Stats
		if st.BundleStoreHits != 1 || st.DumpLinesDisassembled != 0 || st.Search.IndexBuilds != 0 {
			b.Fatalf("job %d was not a fully warm store hit: %+v", i, st)
		}
	}
}
