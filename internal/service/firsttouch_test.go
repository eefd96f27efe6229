package service

import (
	"strings"
	"sync"
	"testing"
	"time"

	"backdroid/internal/apk"
	"backdroid/internal/appgen"
	"backdroid/internal/dex"
	"backdroid/internal/service/journal"
	"backdroid/internal/testapps"
)

// TestSettledHitDecodesNothing: dex files decode on first touch, so a
// settled hit — which reads only the app's fingerprint — leaves every dex
// file of its app undecoded, while the cold run before it decodes each
// dex file of its one app.
func TestSettledHitDecodesNothing(t *testing.T) {
	spec := testSpec(0)
	spec.MultiDex = true
	gen, _, err := appgen.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	data, err := gen.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu   sync.Mutex
		apps []*apk.App
	)
	source := func() (*apk.App, error) {
		app, err := apk.ReadBytes(spec.Name, data)
		mu.Lock()
		apps = append(apps, app)
		mu.Unlock()
		return app, err
	}
	s := New(Config{Workers: 1, Reports: NewReportStore(0), Store: NewBundleStore(0)})
	defer s.Close()
	run := func() *JobResult {
		t.Helper()
		id, err := s.Submit(Job{Name: spec.Name, Source: source, RunBackDroid: true})
		if err != nil {
			t.Fatal(err)
		}
		res, err := waitWithin(t, s, id, time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	loaded := func(app *apk.App) (n int) {
		for _, d := range app.Dexes {
			if d.Loaded() {
				n++
			}
		}
		return n
	}

	cold := run()
	if cold.BackDroid.Stats.SettledLookups != 0 || len(apps) != 1 {
		t.Fatalf("cold run: settled lookups %d, %d sources read", cold.BackDroid.Stats.SettledLookups, len(apps))
	}
	if n := len(apps[0].Dexes); n < 2 || loaded(apps[0]) != n {
		t.Fatalf("cold run decoded %d of %d dex files, want all of at least 2", loaded(apps[0]), n)
	}
	hit := run()
	if hit.BackDroid.Stats.SettledLookups != 1 || len(apps) != 2 {
		t.Fatalf("resubmission: settled lookups %d, %d sources read; want one settled hit",
			hit.BackDroid.Stats.SettledLookups, len(apps))
	}
	if n := loaded(apps[1]); n != 0 {
		t.Fatalf("settled hit decoded %d of %d dex files, want none", n, len(apps[1].Dexes))
	}
}

// TestHostileDexBodyFailsOneJob: a container whose classes2.dex has a
// valid magic and a body that does not decode reads fine, so the error
// surfaces when the engine first touches the classes. The job ends as
// exactly one journaled failed terminal naming classes2.dex — through
// the ordinary error path, not panic recovery — and the next job runs
// normally.
func TestHostileDexBodyFailsOneJob(t *testing.T) {
	container, badDex, err := testapps.BadBodyContainer()
	if err != nil {
		t.Fatal(err)
	}
	_, decodeErr := dex.Decode(badDex)
	if decodeErr == nil {
		t.Fatal("the hostile classes2.dex decodes")
	}
	want := "core: preprocessing " + testapps.Pkg + ": apk: classes2.dex: " + decodeErr.Error()

	for _, cfg := range []Config{{Workers: 1}, {Nodes: 2}} {
		dir := t.TempDir()
		jnl, _, err := journal.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		var (
			mu      sync.Mutex
			kinds   = map[string]int{}
			failed  []string
			readErr error
		)
		jnl.SetCorrupt(func(kind string, encoded []byte) []byte {
			mu.Lock()
			defer mu.Unlock()
			kinds[kind]++
			if kind == "failed" {
				failed = append(failed, string(encoded))
			}
			return nil
		})
		cfg.Journal = jnl
		s := New(cfg)
		bad, err := s.Submit(Job{Name: testapps.Pkg, Spec: "hostile", RunBackDroid: true,
			Source: func() (*apk.App, error) {
				app, err := apk.ReadBytes(testapps.Pkg, container)
				mu.Lock()
				readErr = err
				mu.Unlock()
				return app, err
			}})
		if err != nil {
			t.Fatal(err)
		}
		good, err := s.Submit(Job{Name: testSpec(0).Name, Spec: "good",
			Source: sourceFor(testSpec(0)), RunBackDroid: true})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := waitWithin(t, s, bad, time.Minute); err == nil || !strings.HasSuffix(err.Error(), want) {
			t.Fatalf("hostile job (nodes %d): err = %v, want one ending %q", cfg.Nodes, err, want)
		}
		res, err := waitWithin(t, s, good, time.Minute)
		if err != nil || res.BackDroid == nil || len(res.BackDroid.Sinks) == 0 {
			t.Fatalf("job after the hostile one: res = %+v, err = %v", res, err)
		}
		if n, _ := s.Metrics().Snapshot().Get("backdroid_job_panics_total"); n != 0 {
			t.Errorf("backdroid_job_panics_total = %d, want 0", n)
		}
		s.Close()
		mu.Lock()
		if readErr != nil {
			t.Errorf("reading the container failed: %v; only the first touch may", readErr)
		}
		if kinds["failed"] != 1 || kinds["done"] != 1 || kinds["canceled"] != 0 {
			t.Errorf("journaled terminals = %v, want one failed and one done", kinds)
		}
		if len(failed) == 1 && !strings.Contains(failed[0], "apk: classes2.dex: ") {
			t.Errorf("failed record does not name classes2.dex: %q", failed[0])
		}
		mu.Unlock()
		if err := jnl.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
