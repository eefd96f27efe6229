package main

import (
	"os"
	"path/filepath"
	"testing"

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

func TestRunShardedBackend(t *testing.T) {
	path := fixturePath(t)
	if err := run([]string{path}, config{backend: "sharded", workers: 1, stats: true}); err != nil {
		t.Fatalf("run sharded: %v", err)
	}
	if err := run([]string{path}, config{backend: "sharded", shards: 3, workers: 1}); err != nil {
		t.Fatalf("run sharded with explicit count: %v", err)
	}
}

func TestRunIndexCache(t *testing.T) {
	path := fixturePath(t)
	dir := t.TempDir()
	cfg := config{backend: "sharded", workers: 1, indexCache: dir, stats: true}
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
	cfg := config{backend: "sharded", workers: 1, indexCache: dir, stats: true}
	// Cold run writes the bundle; warm run must load dump and index.
	if err := run([]string{path}, cfg); err != nil {
		t.Fatalf("cold bundle run: %v", err)
	}
	if err := run([]string{path}, cfg); err != nil {
		t.Fatalf("warm bundle run: %v", err)
	}
}
