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
	// Dexes are the app's dex files in multidex order. Those of an app
	// read from a container are opened, not decoded: each decodes on
	// first touch (see dex.Open), so a job that only fingerprints the
	// app decodes nothing.
	Dexes []*dex.File

	fpOnce sync.Once // guards fp and dexBytes (see Fingerprint)
	fp     uint64
	// dexBytes holds each classesN.dex entry as read by Read, in Dexes
	// order, until Fingerprint hashes and releases them; nil for apps
	// built with New.
	dexBytes [][]byte
	// dexNames holds each dex entry's name as read by Read, in Dexes
	// order; nil for apps built with New, whose Write names them.
	dexNames []string
}

// New builds an app from a manifest and dex files.
func New(name string, m *manifest.Manifest, dexes ...*dex.File) *App {
	return &App{Name: name, Manifest: m, Dexes: dexes}
}

// Fingerprint returns the app's content fingerprint, dex.Fingerprint of
// its encoded dex files — the same value as dexdump.AppFingerprint(Dexes).
// It is computed once: an app read from a container hashes the dex bytes
// as read, without decoding them, and then lets go of them; an app built
// with New encodes its dex files on the first call, so it must not be
// modified after that call.
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

// dexName returns the container entry name of Dexes[i].
func (a *App) dexName(i int) string {
	if a.dexNames != nil {
		return a.dexNames[i]
	}
	if i == 0 {
		return "classes.dex"
	}
	return fmt.Sprintf("classes%d.dex", i+1)
}

// MergedDex decodes the dex files and merges them into a single dex view
// — the "merged, if multidex is used" preprocessing step of the paper. A
// dex file that does not decode fails the merge with an error naming its
// entry. Every method of the view has its Code filled.
func (a *App) MergedDex() (*dex.File, error) {
	return a.merged((*dex.File).Load)
}

// MergedTables is MergedDex for a reader that needs few bodies: each dex
// file is loaded with dex.File.LoadTables, which checks every body as
// MergedDex does and fails with the same error, but leaves the bodies
// pending until Method.Instructions asks for them.
func (a *App) MergedTables() (*dex.File, error) {
	return a.merged((*dex.File).LoadTables)
}

// MergedVisiting is MergedTables for a reader that needs every body
// once, such as the cold path's renderer: each dex file is loaded with
// dex.File.LoadVisiting, which hands v every class and body as its walk
// checks them, in multidex order, and leaves the bodies pending. visited
// reports whether v was handed every file; it is false when some file
// was loaded before, and the files after it are then loaded with
// LoadTables. The errors are MergedTables'.
func (a *App) MergedVisiting(v dex.Visitor) (merged *dex.File, visited bool, err error) {
	visited = true
	merged, err = a.merged(func(d *dex.File) error {
		if !visited {
			return d.LoadTables()
		}
		var err error
		visited, err = d.LoadVisiting(v)
		return err
	})
	return merged, visited, err
}

func (a *App) merged(load func(*dex.File) error) (*dex.File, error) {
	for i, d := range a.Dexes {
		if err := load(d); err != nil {
			return nil, fmt.Errorf("apk: %s: %w", a.dexName(i), err)
		}
	}
	if len(a.Dexes) == 1 {
		return a.Dexes[0], nil
	}
	merged := dex.NewFile()
	for i, d := range a.Dexes {
		if err := merged.Merge(d); err != nil {
			return nil, fmt.Errorf("apk: merging %s: %w", a.dexName(i), err)
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

// maxDeflateRatio is deflate's expansion limit: one compressed byte
// inflates to at most 1032 bytes (a stored entry does not expand at all).
const maxDeflateRatio = 1032

// Read parses an app container from a reader: it inflates the manifest
// and the dex entries and checks each dex magic, but decodes no dex file
// (see App.Dexes). The dex entries are classes.dex and classesN.dex with
// N >= 2 written in plain decimal, each at most once.
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
			idx, ok := dexIndex(zf.Name)
			if !ok {
				return nil, fmt.Errorf("apk: bad dex entry name %q", zf.Name)
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
	for i := 1; i < len(dexEntries); i++ {
		if dexEntries[i].index == dexEntries[i-1].index {
			return nil, fmt.Errorf("apk: %s: duplicate dex entry %q", name, dexEntries[i].file.Name)
		}
	}
	for _, de := range dexEntries {
		data, err := readEntry(de.file, &total)
		if err != nil {
			return nil, err
		}
		d, err := dex.Open(data)
		if err != nil {
			return nil, fmt.Errorf("apk: %s: %w", de.file.Name, err)
		}
		app.Dexes = append(app.Dexes, d)
		app.dexBytes = append(app.dexBytes, data)
		app.dexNames = append(app.dexNames, de.file.Name)
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

// dexIndex returns the multidex index of a dex entry name: 1 for
// classes.dex, N for classesN.dex. Only canonical names are accepted: N
// is at least 2 and has no sign or leading zero, so no two names share
// an index.
func dexIndex(name string) (int, bool) {
	mid := strings.TrimSuffix(strings.TrimPrefix(name, "classes"), ".dex")
	if mid == "" {
		return 1, true
	}
	if mid[0] < '1' || mid[0] > '9' { // no sign, no leading zero
		return 0, false
	}
	n, err := strconv.Atoi(mid)
	if err != nil || n < 2 {
		return 0, false
	}
	return n, true
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
	// io.ReadAll with the buffer sized up front, so a well-formed entry
	// is read without growing or copying: its declared size, plus one
	// byte for the read that sees EOF (and has zip check the CRC). No
	// entry inflates to more than maxDeflateRatio times its compressed
	// size, so a larger declared size is a lie the read will fail on, and
	// the buffer is not sized by it.
	size := zf.UncompressedSize64
	if zf.CompressedSize64 < size/maxDeflateRatio {
		size = zf.CompressedSize64 * maxDeflateRatio
	}
	b := make([]byte, 0, size+1)
	for {
		n, err := rc.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return nil, err
		}
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
	}
}
