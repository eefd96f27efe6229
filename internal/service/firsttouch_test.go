package service

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"backdroid/internal/apk"
	"backdroid/internal/appgen"
	"backdroid/internal/dex"
	"backdroid/internal/dexdump"
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
// normally. That holds for a hostile pool and for a hostile method body
// behind a valid class table, on a cold run and on a forged warm hit: a
// valid bundle stored under the hostile app's fingerprint sends the job
// down the warm path, whose table load must still check every body.
func TestHostileDexBodyFailsOneJob(t *testing.T) {
	for _, hostile := range []struct {
		name      string
		container func() ([]byte, []byte, error)
	}{{"pool", testapps.BadBodyContainer}, {"code", testapps.BadCodeContainer}} {
		container, badDex, err := hostile.container()
		if err != nil {
			t.Fatal(err)
		}
		_, decodeErr := dex.Decode(badDex)
		if decodeErr == nil {
			t.Fatalf("%s: the hostile classes2.dex decodes", hostile.name)
		}
		want := "core: preprocessing " + testapps.Pkg + ": apk: classes2.dex: " + decodeErr.Error()
		forged := forgedBundle(t, container)
		for _, f := range []*forgedEntry{nil, forged} {
			for _, cfg := range []Config{{Workers: 1, Store: NewBundleStore(0)}, {Nodes: 2, Store: NewBundleStore(0)}} {
				label := fmt.Sprintf("%s, forged hit %v, nodes %d", hostile.name, f != nil, cfg.Nodes)
				runHostileJob(t, label, cfg, container, want, f)
			}
		}
	}
}

// forgedEntry is a bundle stored under a fingerprint it was not built
// from.
type forgedEntry struct {
	fp     uint64
	bundle []byte
}

// forgedBundle returns a valid bundle of the Fixture app's dump, stamped
// with the fingerprint of the app read from container.
func forgedBundle(t *testing.T, container []byte) *forgedEntry {
	t.Helper()
	app, err := apk.ReadBytes(testapps.Pkg, container)
	if err != nil {
		t.Fatal(err)
	}
	fixture, err := testapps.Fixture()
	if err != nil {
		t.Fatal(err)
	}
	merged, err := fixture.MergedDex()
	if err != nil {
		t.Fatal(err)
	}
	text := dexdump.Disassemble(merged)
	fp := app.Fingerprint()
	bundle, err := dexdump.EncodeBundle(text, dexdump.BuildIndex(text), fp, nil)
	if err != nil {
		t.Fatal(err)
	}
	return &forgedEntry{fp, bundle}
}

// runHostileJob submits the hostile container and then a good app on a
// scheduler built from cfg with a fresh journal, and requires the hostile
// job to fail with want, the good one to finish, and the journal to hold
// exactly one failed and one done terminal. A non-nil forged entry is put
// in the scheduler's bundle store first, and the job must have found it.
func runHostileJob(t *testing.T, label string, cfg Config, container []byte, want string, forged *forgedEntry) {
	t.Helper()
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
	if forged != nil {
		cfg.Store.PutBundle(forged.fp, forged.bundle)
	}
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
		t.Fatalf("hostile job (%s): err = %v, want one ending %q", label, err, want)
	}
	res, err := waitWithin(t, s, good, time.Minute)
	if err != nil || res.BackDroid == nil || len(res.BackDroid.Sinks) == 0 {
		t.Fatalf("job after the hostile one (%s): res = %+v, err = %v", label, res, err)
	}
	if n, _ := s.Metrics().Snapshot().Get("backdroid_job_panics_total"); n != 0 {
		t.Errorf("%s: backdroid_job_panics_total = %d, want 0", label, n)
	}
	s.Close()
	if forged != nil && cfg.Store.stats().Hits == 0 {
		t.Errorf("%s: the forged bundle was never found", label)
	}
	mu.Lock()
	if readErr != nil {
		t.Errorf("%s: reading the container failed: %v; only the first touch may", label, readErr)
	}
	if kinds["failed"] != 1 || kinds["done"] != 1 || kinds["canceled"] != 0 {
		t.Errorf("%s: journaled terminals = %v, want one failed and one done", label, kinds)
	}
	if len(failed) == 1 && !strings.Contains(failed[0], "apk: classes2.dex: ") {
		t.Errorf("%s: failed record does not name classes2.dex: %q", label, failed[0])
	}
	mu.Unlock()
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSharedAppWarmAndColdJobs: one *apk.App read from a container serves
// store-hit jobs, which load its dex tables and decode bodies on demand,
// and cold jobs, which render each body in the walk that loads the
// tables, at the same time. Under -race this checks that the load modes
// share the dex files safely; every job must report the cold verdicts.
// A cold job on a fresh app must decode exactly the bodies a store hit
// on another fresh app decodes: the ones the analysis translates. A
// cold job on an app a store hit loaded first renders through Render,
// which must leave every concrete body decoded.
func TestSharedAppWarmAndColdJobs(t *testing.T) {
	spec := testSpec(1)
	spec.MultiDex = true
	gen, _, err := appgen.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	data, err := gen.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	read := func() *apk.App {
		app, err := apk.ReadBytes(spec.Name, data)
		if err != nil {
			t.Fatal(err)
		}
		return app
	}
	store := NewBundleStore(0)
	warmS := New(Config{Workers: 2, Store: store})
	defer warmS.Close()
	coldS := New(Config{Workers: 2})
	defer coldS.Close()
	ref := runFixtureJob(t, warmS, read()) // primes the store
	want := detectionKey(ref.BackDroid)

	// decoded lists the methods whose bodies are decoded, and pending
	// counts the concrete ones whose bodies are not.
	decoded := func(app *apk.App) (refs []string, pending int) {
		for _, d := range app.Dexes {
			for _, c := range d.Classes() {
				for _, m := range c.Methods {
					switch {
					case m.BodyDecoded():
						refs = append(refs, m.Ref.SootSignature())
					case !m.IsAbstract():
						pending++
					}
				}
			}
		}
		return refs, pending
	}
	check := func(label string, res *JobResult, hit bool) {
		t.Helper()
		if got := res.BackDroid.Stats.BundleStoreHits == 1; got != hit {
			t.Errorf("%s: store hit %v, want %v", label, got, hit)
		}
		if got := detectionKey(res.BackDroid); got != want {
			t.Errorf("%s: verdicts\n%s\nwant\n%s", label, got, want)
		}
	}

	// Store hit first, then a cold job on the same app.
	app := read()
	check("store hit", runFixtureJob(t, warmS, app), true)
	hitDecoded, pending := decoded(app)
	if pending == 0 || len(hitDecoded) == 0 {
		t.Fatalf("the store hit decoded %d bodies and left %d concrete ones pending", len(hitDecoded), pending)
	}
	check("cold after store hit", runFixtureJob(t, coldS, app), false)
	if _, n := decoded(app); n != 0 {
		t.Fatalf("%d concrete bodies pending after a cold job rendered a table-loaded app", n)
	}

	// A cold job on a fresh app decodes what a store hit decodes.
	app = read()
	check("cold on a fresh app", runFixtureJob(t, coldS, app), false)
	if got, _ := decoded(app); !slices.Equal(got, hitDecoded) {
		t.Fatalf("cold job decoded the bodies of\n%v\nwant those the store hit decoded\n%v", got, hitDecoded)
	}

	// Both kinds at once, several times over each of a few fresh apps.
	for round := 0; round < 3; round++ {
		app := read()
		var ids []JobID
		var hits []bool
		for i := 0; i < 4; i++ {
			s, hit := warmS, true
			if (i+round)%2 == 1 {
				s, hit = coldS, false
			}
			id, err := s.Submit(Job{Name: spec.Name, RunBackDroid: true,
				Source: func() (*apk.App, error) { return app, nil }})
			if err != nil {
				t.Fatal(err)
			}
			ids, hits = append(ids, id), append(hits, hit)
		}
		for i, id := range ids {
			s := warmS
			if !hits[i] {
				s = coldS
			}
			res, err := waitWithin(t, s, id, time.Minute)
			if err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("round %d job %d", round, i), res, hits[i])
		}
	}
}
