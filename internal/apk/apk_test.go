package apk

import (
	"archive/zip"
	"bytes"
	"compress/flate"
	"io"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"backdroid/internal/dex"
	"backdroid/internal/manifest"
)

func sampleApp(t *testing.T) *App {
	t.Helper()
	m := manifest.New("com.example.app")
	m.Add(manifest.Activity, "com.example.app.MainActivity")

	d1 := dex.NewFile()
	cb := dex.NewClass("com.example.app.MainActivity").Extends("android.app.Activity")
	cb.Method("onCreate", dex.Void, dex.T("android.os.Bundle")).ReturnVoid().Done()
	if err := d1.AddClass(cb.Build()); err != nil {
		t.Fatal(err)
	}

	d2 := dex.NewFile()
	lib := dex.NewClass("com.thirdparty.lib.Helper")
	lib.StaticMethod("help", dex.Void).ReturnVoid().Done()
	if err := d2.AddClass(lib.Build()); err != nil {
		t.Fatal(err)
	}

	return New("com.example.app", m, d1, d2)
}

func TestRoundTripBytes(t *testing.T) {
	app := sampleApp(t)
	data, err := app.Bytes()
	if err != nil {
		t.Fatalf("Bytes: %v", err)
	}
	got, err := ReadBytes("com.example.app", data)
	if err != nil {
		t.Fatalf("ReadBytes: %v", err)
	}
	if got.Manifest.Package != "com.example.app" {
		t.Errorf("package = %q", got.Manifest.Package)
	}
	if len(got.Dexes) != 2 {
		t.Fatalf("dexes = %d, want 2", len(got.Dexes))
	}
	if got.Dexes[0].Class("com.example.app.MainActivity") == nil {
		t.Error("classes.dex content lost")
	}
	if got.Dexes[1].Class("com.thirdparty.lib.Helper") == nil {
		t.Error("classes2.dex content lost")
	}
}

func TestMergedDex(t *testing.T) {
	app := sampleApp(t)
	merged, err := app.MergedDex()
	if err != nil {
		t.Fatalf("MergedDex: %v", err)
	}
	if merged.Class("com.example.app.MainActivity") == nil ||
		merged.Class("com.thirdparty.lib.Helper") == nil {
		t.Error("merge lost classes")
	}
	// Single-dex apps return the dex itself.
	single := New("x", manifest.New("x"), app.Dexes[0])
	m1, err := single.MergedDex()
	if err != nil {
		t.Fatal(err)
	}
	if m1 != app.Dexes[0] {
		t.Error("single dex should be returned as-is")
	}
}

func TestMergedDexDuplicate(t *testing.T) {
	d := dex.NewFile()
	if err := d.AddClass(dex.NewClass("com.a.A").Build()); err != nil {
		t.Fatal(err)
	}
	d2 := dex.NewFile()
	if err := d2.AddClass(dex.NewClass("com.a.A").Build()); err != nil {
		t.Fatal(err)
	}
	app := New("dup", manifest.New("dup"), d, d2)
	if _, err := app.MergedDex(); err == nil {
		t.Error("duplicate classes across dex files must fail to merge")
	}
}

func TestSaveLoad(t *testing.T) {
	app := sampleApp(t)
	path := filepath.Join(t.TempDir(), "com.example.app.apk")
	if err := app.Save(path); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if got.Name != "com.example.app" {
		t.Errorf("Name = %q", got.Name)
	}
	if got.InstructionCount() != app.InstructionCount() {
		t.Errorf("InstructionCount = %d, want %d", got.InstructionCount(), app.InstructionCount())
	}
}

func TestReadBytesErrors(t *testing.T) {
	if _, err := ReadBytes("x", []byte("not a zip")); err == nil {
		t.Error("ReadBytes should fail on garbage")
	}
}

// TestReadRejectsDecompressionBomb feeds Read a container whose
// classes.dex inflates to 257 MiB of zeros (about 320 KiB compressed).
// Read must refuse it from the declared size alone, without inflating it.
func TestReadRejectsDecompressionBomb(t *testing.T) {
	mf, err := manifest.New("com.bomb").ToXML()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	zw := zip.NewWriter(&buf)
	zw.RegisterCompressor(zip.Deflate, func(w io.Writer) (io.WriteCloser, error) {
		return flate.NewWriter(w, flate.BestSpeed)
	})
	w, err := zw.Create("AndroidManifest.xml")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(mf); err != nil {
		t.Fatal(err)
	}
	if w, err = zw.Create("classes.dex"); err != nil {
		t.Fatal(err)
	}
	chunk := make([]byte, 1<<20)
	for i := 0; i < 257; i++ {
		if _, err := w.Write(chunk); err != nil {
			t.Fatal(err)
		}
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = ReadBytes("com.bomb", data)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "classes.dex") || !strings.Contains(err.Error(), "268435456-byte cap") {
		t.Fatalf("Read error = %v, want the uncompressed-size cap error naming classes.dex", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 16<<20 {
		t.Errorf("Read allocated %d bytes on a %d-byte bomb, want < 16 MiB", grew, len(data))
	}
}
