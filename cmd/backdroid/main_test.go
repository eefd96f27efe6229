package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"backdroid/internal/android"
	"backdroid/internal/apk"
	"backdroid/internal/appgen"
	"backdroid/internal/dex"
	"backdroid/internal/dexdump"
	"backdroid/internal/testapps"
)

func fixturePath(t *testing.T) string {
	t.Helper()
	app, err := testapps.Fixture()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), app.Name+".apk")
	if err := app.Save(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunAnalyzesContainer(t *testing.T) {
	path := fixturePath(t)
	if err := run([]string{path}, config{backend: "indexed", workers: 1}); err != nil {
		t.Fatalf("run: %v", err)
	}
	// With SSG dumps and subclass resolution.
	if err := run([]string{path}, config{subclassSinks: true, showSSG: true, workers: 1}); err != nil {
		t.Fatalf("run with flags: %v", err)
	}
}

func TestRunLinearBackend(t *testing.T) {
	path := fixturePath(t)
	if err := run([]string{path}, config{backend: "linear", workers: 1}); err != nil {
		t.Fatalf("run linear: %v", err)
	}
}

func TestRunUnknownBackend(t *testing.T) {
	path := fixturePath(t)
	if err := run([]string{path}, config{backend: "bogus"}); err == nil {
		t.Error("unknown backend must fail")
	}
}

func TestRunParallelApps(t *testing.T) {
	path := fixturePath(t)
	// The same fixture three times through a 3-worker pool.
	if err := run([]string{path, path, path}, config{workers: 3}); err != nil {
		t.Fatalf("parallel run: %v", err)
	}
}

func TestRunMissingFile(t *testing.T) {
	if err := run([]string{"/nonexistent/x.apk"}, config{}); err == nil {
		t.Error("missing file must fail")
	}
}

func TestRunBadContainer(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "bad.apk")
	if err := os.WriteFile(bad, []byte("not a zip"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{bad}, config{}); err == nil {
		t.Error("bad container must fail")
	}
}

func TestIndent(t *testing.T) {
	got := indent("a\nb", "  ")
	if got != "  a\n  b" {
		t.Errorf("indent = %q", got)
	}
}

func TestRunIndexCache(t *testing.T) {
	path := fixturePath(t)
	dir := t.TempDir()
	cfg := config{backend: "indexed", workers: 1, indexCache: dir, stats: true}
	if err := run([]string{path}, cfg); err != nil {
		t.Fatalf("cold cached run: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("cache dir has %d entries, want 1", len(entries))
	}
	// Warm run loads the file written above.
	if err := run([]string{path}, cfg); err != nil {
		t.Fatalf("warm cached run: %v", err)
	}
}

func TestRunStatsSuppressed(t *testing.T) {
	path := fixturePath(t)
	if err := run([]string{path}, config{backend: "linear", workers: 1, stats: false}); err != nil {
		t.Fatalf("run without stats: %v", err)
	}
}

func TestRunWarmBundle(t *testing.T) {
	path := fixturePath(t)
	dir := t.TempDir()
	cfg := config{backend: "indexed", workers: 1, indexCache: dir, stats: true}
	// Cold run writes the bundle; warm run must load dump and index.
	if err := run([]string{path}, cfg); err != nil {
		t.Fatalf("cold bundle run: %v", err)
	}
	if err := run([]string{path}, cfg); err != nil {
		t.Fatalf("warm bundle run: %v", err)
	}
}

// TestRunHostileDexBody: a container whose classes2.dex has a valid magic
// and a body that does not decode fails the run — on a worker pool and on
// a fleet — with the engine's first-touch error naming classes2.dex, and
// the command exits 1 printing that error.
func TestRunHostileDexBody(t *testing.T) {
	if path := os.Getenv("BACKDROID_HOSTILE_APK"); path != "" {
		// Child process: the real main on the hostile container.
		os.Args = []string{"backdroid", "-workers", "1", path}
		main()
		os.Exit(0)
	}
	container, badDex, err := testapps.BadBodyContainer()
	if err != nil {
		t.Fatal(err)
	}
	_, decodeErr := dex.Decode(badDex)
	if decodeErr == nil {
		t.Fatal("the hostile classes2.dex decodes")
	}
	want := "core: preprocessing " + testapps.Pkg + ": apk: classes2.dex: " + decodeErr.Error()
	path := filepath.Join(t.TempDir(), testapps.Pkg+".apk")
	if err := os.WriteFile(path, container, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []config{{workers: 1}, {nodes: 2}} {
		if err := run([]string{path}, cfg); err == nil || !strings.HasSuffix(err.Error(), want) {
			t.Errorf("run (nodes %d): err = %v, want one ending %q", cfg.nodes, err, want)
		}
	}

	cmd := exec.Command(os.Args[0], "-test.run=^TestRunHostileDexBody$")
	cmd.Env = append(os.Environ(), "BACKDROID_HOSTILE_APK="+path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err = cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("backdroid on the hostile container: %v, want exit status 1", err)
	}
	want = "backdroid: service: backdroid on " + path + ": " + want
	if got := strings.TrimSpace(stderr.String()); got != want {
		t.Fatalf("backdroid stderr = %q, want %q", got, want)
	}
}

// runOutput runs the command body with stdout captured.
func runOutput(t *testing.T, paths []string, cfg config) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	out := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		out <- b
	}()
	stdout := os.Stdout
	os.Stdout = w
	runErr := run(paths, cfg)
	os.Stdout = stdout
	w.Close()
	got := string(<-out)
	r.Close()
	if runErr != nil {
		t.Fatalf("run %v: %v", paths, runErr)
	}
	return got
}

// genPath saves a generated app under dir and returns its path.
func genPath(t *testing.T, dir, file string, app *apk.App) string {
	t.Helper()
	path := filepath.Join(dir, file)
	if err := app.Save(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunFaultsNeedNodes: a fault plan only means something on a fleet,
// so -faults without -nodes is rejected — valid spec or not — instead
// of being silently ignored.
func TestRunFaultsNeedNodes(t *testing.T) {
	path := fixturePath(t)
	for _, spec := range []string{"garbage!!", "kill:node=2@100"} {
		if err := run([]string{path}, config{workers: 1, faults: spec}); err == nil {
			t.Errorf("-faults %q without -nodes: err = nil, want an error", spec)
		}
	}
}

// TestRunDeltaChain: for every update kind, a -delta chain prints
// exactly the base's standalone report followed by the update's, and
// the update reuses at least one settled sink verdict.
func TestRunDeltaChain(t *testing.T) {
	spec := generatedSpec(9, 1)
	base, _, err := appgen.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	basePath := genPath(t, dir, "base.apk", base)
	cfg := config{workers: 1, storeBudget: -1}
	baseOut := runOutput(t, []string{basePath}, cfg)
	reused := regexp.MustCompile(`(?m)^  delta: [1-9][0-9]* sinks reused`)
	for _, m := range appgen.Mutations() {
		t.Run(m.String(), func(t *testing.T) {
			upd, _, err := appgen.GenerateUpdate(appgen.AppUpdateSpec{Base: spec, Mutation: m, Seed: 2})
			if err != nil {
				t.Fatal(err)
			}
			updPath := genPath(t, t.TempDir(), "v2.apk", upd)
			chain := []string{basePath, updPath}
			dcfg := cfg
			dcfg.delta = true
			if got, want := runOutput(t, chain, dcfg), baseOut+runOutput(t, []string{updPath}, cfg); got != want {
				t.Errorf("-delta output:\n%s\nwant the standalone reports:\n%s", got, want)
			}
			dcfg.stats = true
			if out := runOutput(t, chain, dcfg); !reused.MatchString(out) {
				t.Errorf("-delta run reused no sink:\n%s", out)
			}
		})
	}
}

// generatedSpec is the single-app spec `appgen -seed N -size MB`
// generates.
func generatedSpec(seed int64, sizeMB float64) appgen.Spec {
	return appgen.Spec{
		Name:   "com.example.generated",
		Seed:   seed,
		SizeMB: sizeMB,
		Sinks: []appgen.SinkSpec{
			{Flow: appgen.FlowDirect, Rule: android.RuleCryptoECB, Insecure: true},
			{Flow: appgen.FlowAsyncExecutor, Rule: android.RuleSSLAllowAll, Insecure: true},
			{Flow: appgen.FlowClinit, Rule: android.RuleCryptoECB, Insecure: false},
		},
	}
}

// TestRunDeltaDamagedBaseBundle: a base bundle in the -index-cache
// directory whose last byte (inside the manifest section) is flipped is
// a miss of the whole bundle, so the base run rebuilds it and the update
// still takes the delta path. The pair is `appgen -size 3 -seed 20260727
// -update change-literal`.
func TestRunDeltaDamagedBaseBundle(t *testing.T) {
	spec := generatedSpec(20260727, 3)
	base, _, err := appgen.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	upd, _, err := appgen.GenerateUpdate(appgen.AppUpdateSpec{Base: spec, Mutation: appgen.MutateChangeLiteral, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	chain := []string{genPath(t, dir, "base.apk", base), genPath(t, dir, "v2.apk", upd)}
	// cache returns a cache directory holding the base's bundle (named
	// after base.apk), its last byte flipped when damaged is set.
	cache := func(damaged bool) string {
		dir := t.TempDir()
		runOutput(t, chain[:1], config{workers: 1, storeBudget: -1, indexCache: dir})
		if damaged {
			path := dexdump.CachePath(dir, "base")
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)-1] ^= 0x01
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return dir
	}
	cfg := config{workers: 1, storeBudget: -1, delta: true, stats: true, indexCache: cache(true)}
	if out := runOutput(t, chain, cfg); !regexp.MustCompile(`(?m)^  delta: [1-9][0-9]* sinks reused`).MatchString(out) {
		t.Errorf("-delta run over a damaged base bundle reused no sink:\n%s", out)
	}
	want := runOutput(t, chain, config{workers: 1, storeBudget: -1, delta: true, indexCache: cache(false)})
	if got := runOutput(t, chain, config{workers: 1, storeBudget: -1, delta: true, indexCache: cache(true)}); got != want {
		t.Errorf("-delta output over a damaged base bundle:\n%s\nwant the undamaged run's:\n%s", got, want)
	}
}

// TestRunTraceDeterministic: two traced -workers 2 runs of one corpus
// write byte-identical files, and every job's track carries exactly one
// queued and one dispatch instant.
func TestRunTraceDeterministic(t *testing.T) {
	app, _, err := appgen.Generate(appgen.Spec{
		Name: "com.example.traced", Seed: 3, SizeMB: 0.5,
		Sinks: []appgen.SinkSpec{{Flow: appgen.FlowDirect, Rule: android.RuleCryptoECB, Insecure: true}},
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	paths := []string{fixturePath(t), genPath(t, dir, "traced.apk", app)}
	var files [2][]byte
	for i := range files {
		cfg := config{workers: 2, storeBudget: -1, trace: filepath.Join(dir, "t.json")}
		runOutput(t, paths, cfg)
		if files[i], err = os.ReadFile(cfg.trace); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(files[0], files[1]) {
		t.Fatal("two -workers 2 traces of one corpus differ")
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Pid  int    `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(files[0], &doc); err != nil {
		t.Fatal(err)
	}
	type instant struct {
		name string
		job  int
	}
	instants := make(map[instant]int)
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "i" {
			instants[instant{ev.Name, ev.Pid}]++
		}
	}
	for job := 1; job <= len(paths); job++ {
		for _, name := range []string{"queued", "dispatch"} {
			if n := instants[instant{name, job}]; n != 1 {
				t.Errorf("job %d: %d %s instants, want 1", job, n, name)
			}
		}
	}
}
