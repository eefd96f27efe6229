package apk

import (
	"archive/zip"
	"bytes"
	"compress/flate"
	"fmt"
	"io"
	"math/rand"
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

type zipEntry struct {
	name string
	data []byte
}

// zipEntries stores the entries, in order, in a ZIP container.
func zipEntries(t *testing.T, entries ...zipEntry) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw := zip.NewWriter(&buf)
	for _, e := range entries {
		w, err := zw.Create(e.name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Write(e.data); err != nil {
			t.Fatal(err)
		}
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestReadRejectsNonCanonicalDexNames: beside classes.dex, only
// classesN.dex with N >= 2 in plain decimal names a dex file, at most
// once. Every other spelling either collides with a real index or sorts
// ahead of classes.dex, so Read refuses the container.
func TestReadRejectsNonCanonicalDexNames(t *testing.T) {
	mf, err := manifest.New("com.names").ToXML()
	if err != nil {
		t.Fatal(err)
	}
	dexFor := func(class string) []byte {
		d := dex.NewFile()
		if err := d.AddClass(dex.NewClass(class).Build()); err != nil {
			t.Fatal(err)
		}
		return dex.Encode(d)
	}
	for _, tt := range []struct {
		name    string
		entries []string // after classes.dex
	}{
		{"index one spelled out", []string{"classes1.dex"}},
		{"index zero", []string{"classes0.dex"}},
		{"leading zero", []string{"classes2.dex", "classes02.dex"}},
		{"plus sign", []string{"classes2.dex", "classes+2.dex"}},
		{"negative", []string{"classes-1.dex"}},
		{"duplicate entry", []string{"classes2.dex", "classes2.dex"}},
	} {
		t.Run(tt.name, func(t *testing.T) {
			entries := []zipEntry{{"AndroidManifest.xml", mf}, {"classes.dex", dexFor("com.names.Base")}}
			for i, name := range tt.entries {
				entries = append(entries, zipEntry{name, dexFor(fmt.Sprintf("com.names.C%d", i))})
			}
			app, err := ReadBytes("com.names", zipEntries(t, entries...))
			if err == nil {
				t.Fatalf("Read accepted %v with %d dex files", tt.entries, len(app.Dexes))
			}
			if last := tt.entries[len(tt.entries)-1]; !strings.Contains(err.Error(), last) {
				t.Errorf("error %q does not name %s", err, last)
			}
		})
	}
}

// TestMergedDexNamesFailingEntry: a dex file whose body does not decode
// fails MergedDex with an error naming its container entry, also when
// the multidex indices have a gap.
func TestMergedDexNamesFailingEntry(t *testing.T) {
	mf, err := manifest.New("com.gap").ToXML()
	if err != nil {
		t.Fatal(err)
	}
	good := dex.Encode(sampleApp(t).Dexes[0])
	app, err := ReadBytes("com.gap", zipEntries(t,
		zipEntry{"AndroidManifest.xml", mf}, zipEntry{"classes3.dex", good[:len(good)-1]}, zipEntry{"classes.dex", good}))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	_, merr := app.MergedDex()
	if merr == nil || !strings.HasPrefix(merr.Error(), "apk: classes3.dex: dex: ") {
		t.Fatalf("MergedDex error = %v, want one naming classes3.dex", merr)
	}
	again, err := ReadBytes("com.gap", zipEntries(t,
		zipEntry{"AndroidManifest.xml", mf}, zipEntry{"classes3.dex", good[:len(good)-1]}, zipEntry{"classes.dex", good}))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if _, err := again.MergedTables(); err == nil || err.Error() != merr.Error() {
		t.Fatalf("MergedTables error = %v, want MergedDex's %v", err, merr)
	}
}

// TestReadEntryAllocation: an entry is read into one buffer sized up
// front, so a well-formed 4 MiB dex entry costs about 4 MiB, not the
// doublings of a growing buffer. The size comes from the entry's
// declared size only up to deflate's 1032:1 ratio over its compressed
// size, so an entry of 1 KiB that declares 200 MiB allocates about
// 1 MiB before its read fails.
func TestReadEntryAllocation(t *testing.T) {
	mf, err := manifest.New("com.size").ToXML()
	if err != nil {
		t.Fatal(err)
	}
	read := func(data []byte) (uint64, error) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadBytes("com.size", data)
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc, err
	}

	body := make([]byte, 4<<20)
	rand.New(rand.NewSource(1)).Read(body) // incompressible
	copy(body, "GDEX0001")
	container := zipEntries(t, zipEntry{"AndroidManifest.xml", mf}, zipEntry{"classes.dex", body})
	grew, err := read(container)
	if err != nil {
		t.Fatal(err)
	}
	if grew > 5<<20 {
		t.Errorf("reading a 4 MiB entry allocated %d bytes, want at most 5 MiB", grew)
	}

	var comp bytes.Buffer
	fw, err := flate.NewWriter(&comp, flate.BestSpeed)
	if err != nil {
		t.Fatal(err)
	}
	fw.Write(body[:1<<10])
	fw.Close()
	var buf bytes.Buffer
	zw := zip.NewWriter(&buf)
	w, err := zw.Create("AndroidManifest.xml")
	if err != nil {
		t.Fatal(err)
	}
	w.Write(mf)
	if w, err = zw.CreateRaw(&zip.FileHeader{Name: "classes.dex", Method: zip.Deflate,
		CompressedSize64: uint64(comp.Len()), UncompressedSize64: 200 << 20}); err != nil {
		t.Fatal(err)
	}
	w.Write(comp.Bytes())
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	grew, err = read(buf.Bytes())
	if err == nil {
		t.Fatal("an entry 200 MiB short of its declared size read without error")
	}
	if grew > 4<<20 {
		t.Errorf("a %d-byte entry declaring 200 MiB allocated %d bytes, want at most 4 MiB", comp.Len(), grew)
	}
}
