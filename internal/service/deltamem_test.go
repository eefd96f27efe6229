package service

import (
	"fmt"
	"runtime"
	"testing"

	"backdroid/internal/apk"
	"backdroid/internal/appgen"
	"backdroid/internal/core"
)

// TestDeltaBasesBoundedByStore submits the 121-sink outlier under 20
// distinct job names to a scheduler whose bundle store admits nothing
// (a 1-byte budget), so no delta run could ever use a remembered base.
// The scheduler must remember none, and the live heap after GC must not
// grow with the names: a tree that remembered every report with its
// SSGs retained about 1.9 MB per name here, 38 MB in all.
func TestDeltaBasesBoundedByStore(t *testing.T) {
	const names = 20
	const maxGrowth = 4 << 20 // bytes retained across all 20 names
	app, _, err := appgen.Generate(appgen.ManySinkOutlierSpec(7))
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Workers: 1, Store: NewBundleStore(1)})
	defer s.Close()
	run := func(name string) {
		t.Helper()
		id, err := s.Submit(Job{Name: name, Source: func() (*apk.App, error) { return app, nil }, RunBackDroid: true})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Wait(id); err != nil {
			t.Fatal(err)
		}
		s.Forget(id)
	}
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	run("warmup")
	before := heap()
	for i := range names {
		run(fmt.Sprintf("name-%02d", i))
	}
	after := heap()
	if n := s.deltaBases(); n != 0 {
		t.Errorf("scheduler remembers %d delta bases for a store that holds no bundle", n)
	}
	if after > before && after-before > maxGrowth {
		t.Errorf("live heap grew %.2f MB over %d names, bound %.2f MB",
			float64(after-before)/(1<<20), names, float64(maxGrowth)/(1<<20))
	}
	runtime.KeepAlive(app)
}

// TestDeltaBaseFollowsItsBundle: a remembered base lives exactly as long
// as the store holds its bundle. With a budget that holds one bundle,
// the second app's bundle evicts the first's, and the first app's base
// goes with it at the next remember. The base is a copy without SSGs;
// the report the job returned keeps its own.
func TestDeltaBaseFollowsItsBundle(t *testing.T) {
	first, _, err := appgen.Generate(testSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	second, _, err := appgen.Generate(testSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	probe := New(Config{Workers: 1, Store: NewBundleStore(0)})
	size := int64(0)
	for _, app := range []*apk.App{first, second} {
		id, err := probe.Submit(Job{Name: app.Name, Source: func() (*apk.App, error) { return app, nil }, RunBackDroid: true})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := probe.Wait(id); err != nil {
			t.Fatal(err)
		}
		data, _ := probe.cfg.Store.GetBundle(app.Fingerprint())
		size = max(size, int64(len(data)))
	}
	probe.Close()

	s := New(Config{Workers: 1, Store: NewBundleStore(size + size/2)})
	defer s.Close()
	run := func(app *apk.App) *core.Report {
		t.Helper()
		id, err := s.Submit(Job{Name: app.Name, Source: func() (*apk.App, error) { return app, nil }, RunBackDroid: true})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Wait(id)
		if err != nil {
			t.Fatal(err)
		}
		return res.BackDroid
	}
	rep := run(first)
	base, ok := s.lastRun(DefaultTenantName, first.Name)
	if !ok || s.deltaBases() != 1 {
		t.Fatalf("first app: base remembered %v, %d bases", ok, s.deltaBases())
	}
	graphs := 0
	for i, sr := range rep.Sinks {
		if sr.SSG != nil {
			graphs++
		}
		if base.report.Sinks[i].SSG != nil {
			t.Errorf("sink %d: the remembered base keeps its SSG", i)
		}
		if base.report.Sinks[i] == sr {
			t.Errorf("sink %d: the base shares the job's sink report", i)
		}
	}
	if graphs == 0 {
		t.Fatal("the job's report lost its SSGs")
	}

	run(second)
	if _, ok := s.lastRun(DefaultTenantName, first.Name); ok {
		t.Error("the first app's base outlived its evicted bundle")
	}
	if _, ok := s.lastRun(DefaultTenantName, second.Name); !ok || s.deltaBases() != 1 {
		t.Errorf("second app: base remembered %v, %d bases", ok, s.deltaBases())
	}
	var gauge int64 = -1
	for _, m := range s.Metrics().Snapshot() {
		if m.ID() == "backdroid_delta_bases" {
			gauge = m.Value
		}
	}
	if gauge != 1 {
		t.Errorf("backdroid_delta_bases = %d, want 1", gauge)
	}
}
