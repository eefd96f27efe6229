package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"backdroid/internal/dex"
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
	if got := strings.TrimSpace(stderr.String()); got != "backdroid: "+want {
		t.Fatalf("backdroid stderr = %q, want %q", got, "backdroid: "+want)
	}
}
