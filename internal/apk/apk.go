// Package apk implements the app container: a ZIP archive holding
// AndroidManifest.xml and one or more classes*.dex entries, mirroring the
// layout of a real APK. BackDroid's preprocessing step (paper Sec. III
// step 1) extracts the manifest and merges multidex files before
// disassembly.
package apk

import (
	"archive/zip"
	"bytes"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"

	"backdroid/internal/dex"
	"backdroid/internal/manifest"
)

// App is an in-memory app: manifest plus one or more dex files (multidex).
type App struct {
	Name     string // market-style identifier, e.g. "com.lge.app1"
	Manifest *manifest.Manifest
	Dexes    []*dex.File

	fpOnce sync.Once // guards fp and dexBytes (see Fingerprint)
	fp     uint64
	// dexBytes holds each classesN.dex entry as read by Read, in Dexes
	// order, until Fingerprint hashes and releases them; nil for apps
	// built with New.
	dexBytes [][]byte
}

// New builds an app from a manifest and dex files.
func New(name string, m *manifest.Manifest, dexes ...*dex.File) *App {
	return &App{Name: name, Manifest: m, Dexes: dexes}
}

// Fingerprint returns the app's content fingerprint, dex.Fingerprint of
// its encoded dex files — the same value as dexdump.AppFingerprint(Dexes).
// It is computed once: an app read from a container hashes the dex bytes
// as read and then lets go of them; an app built with New encodes its dex
// files on the first call, so it must not be modified after that call.
func (a *App) Fingerprint() uint64 {
	a.fpOnce.Do(func() {
		encoded := a.dexBytes
		if encoded == nil {
			for _, d := range a.Dexes {
				encoded = append(encoded, dex.Encode(d))
			}
		}
		a.fp = dex.Fingerprint(encoded)
		a.dexBytes = nil
	})
	return a.fp
}

// MergedDex merges the multidex files into a single dex view — the
// "merged, if multidex is used" preprocessing step of the paper.
func (a *App) MergedDex() (*dex.File, error) {
	if len(a.Dexes) == 1 {
		return a.Dexes[0], nil
	}
	merged := dex.NewFile()
	for i, d := range a.Dexes {
		if err := merged.Merge(d); err != nil {
			return nil, fmt.Errorf("apk: merging classes%d.dex: %w", i+1, err)
		}
	}
	return merged, nil
}

// InstructionCount returns the total instruction count across all dex files.
func (a *App) InstructionCount() int {
	n := 0
	for _, d := range a.Dexes {
		n += d.InstructionCount()
	}
	return n
}

// Write serializes the app as a ZIP container.
func (a *App) Write(w io.Writer) error {
	zw := zip.NewWriter(w)
	mf, err := a.Manifest.ToXML()
	if err != nil {
		return fmt.Errorf("apk: manifest: %w", err)
	}
	entry, err := zw.Create("AndroidManifest.xml")
	if err != nil {
		return err
	}
	if _, err := entry.Write(mf); err != nil {
		return err
	}
	for i, d := range a.Dexes {
		name := "classes.dex"
		if i > 0 {
			name = fmt.Sprintf("classes%d.dex", i+1)
		}
		entry, err := zw.Create(name)
		if err != nil {
			return err
		}
		if _, err := entry.Write(dex.Encode(d)); err != nil {
			return err
		}
	}
	return zw.Close()
}

// Bytes serializes the app container to memory.
func (a *App) Bytes() ([]byte, error) {
	var buf bytes.Buffer
	if err := a.Write(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Save writes the app container to a file.
func (a *App) Save(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := a.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// maxUncompressedBytes caps the summed declared uncompressed size of the
// manifest and dex entries of one container, so a small deflate bomb
// cannot make Read allocate without bound. Checking declared sizes is
// enough: archive/zip fails any read past an entry's declared size.
const maxUncompressedBytes = 256 << 20

// Read parses an app container from a reader.
func Read(name string, r io.ReaderAt, size int64) (*App, error) {
	zr, err := zip.NewReader(r, size)
	if err != nil {
		return nil, fmt.Errorf("apk: %w", err)
	}
	app := &App{Name: name}
	type dexEntry struct {
		index int
		file  *zip.File
	}
	var dexEntries []dexEntry
	var total uint64 // declared uncompressed bytes of the entries read so far
	for _, zf := range zr.File {
		switch {
		case zf.Name == "AndroidManifest.xml":
			data, err := readEntry(zf, &total)
			if err != nil {
				return nil, err
			}
			m, err := manifest.ParseXML(data)
			if err != nil {
				return nil, err
			}
			app.Manifest = m
		case strings.HasPrefix(zf.Name, "classes") && strings.HasSuffix(zf.Name, ".dex"):
			idx := 1
			mid := strings.TrimSuffix(strings.TrimPrefix(zf.Name, "classes"), ".dex")
			if mid != "" {
				idx, err = strconv.Atoi(mid)
				if err != nil {
					return nil, fmt.Errorf("apk: bad dex entry name %q", zf.Name)
				}
			}
			dexEntries = append(dexEntries, dexEntry{index: idx, file: zf})
		}
	}
	if app.Manifest == nil {
		return nil, fmt.Errorf("apk: %s: missing AndroidManifest.xml", name)
	}
	if len(dexEntries) == 0 {
		return nil, fmt.Errorf("apk: %s: no classes.dex entries", name)
	}
	sort.Slice(dexEntries, func(i, j int) bool { return dexEntries[i].index < dexEntries[j].index })
	for _, de := range dexEntries {
		data, err := readEntry(de.file, &total)
		if err != nil {
			return nil, err
		}
		d, err := dex.Decode(data)
		if err != nil {
			return nil, fmt.Errorf("apk: %s: %w", de.file.Name, err)
		}
		app.Dexes = append(app.Dexes, d)
		app.dexBytes = append(app.dexBytes, data)
	}
	return app, nil
}

// ReadBytes parses an app container from memory.
func ReadBytes(name string, data []byte) (*App, error) {
	return Read(name, bytes.NewReader(data), int64(len(data)))
}

// Load reads an app container from a file.
func Load(path string) (*App, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	base := path
	if i := strings.LastIndexByte(base, '/'); i >= 0 {
		base = base[i+1:]
	}
	base = strings.TrimSuffix(base, ".apk")
	return Read(base, f, st.Size())
}

// readEntry reads one entry after adding its declared uncompressed size
// to *total, rejecting it unopened when the sum would exceed
// maxUncompressedBytes.
func readEntry(zf *zip.File, total *uint64) ([]byte, error) {
	if zf.UncompressedSize64 > maxUncompressedBytes-*total {
		return nil, fmt.Errorf("apk: entry %s: uncompressed size %d would exceed the %d-byte cap",
			zf.Name, zf.UncompressedSize64, maxUncompressedBytes)
	}
	*total += zf.UncompressedSize64
	rc, err := zf.Open()
	if err != nil {
		return nil, err
	}
	defer rc.Close()
	return io.ReadAll(rc)
}
