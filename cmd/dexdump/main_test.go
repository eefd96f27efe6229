package main

import (
	"io"
	"path/filepath"
	"strings"
	"testing"

	"backdroid/internal/dexdump"
	"backdroid/internal/testapps"
)

func TestRunDisassembles(t *testing.T) {
	app, err := testapps.Fixture()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), app.Name+".apk")
	if err := app.Save(path); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run(&out, path); err != nil {
		t.Fatalf("run: %v", err)
	}
	// The output is the dump Render makes of the eagerly merged app.
	merged, err := app.MergedDex()
	if err != nil {
		t.Fatal(err)
	}
	want, err := dexdump.Render(merged)
	if err != nil {
		t.Fatal(err)
	}
	if out.String() != want.String() {
		t.Error("dexdump output differs from Render of the merged dex")
	}
}

func TestRunMissingFile(t *testing.T) {
	if err := run(io.Discard, "/nonexistent/x.apk"); err == nil {
		t.Error("missing file must fail")
	}
}
