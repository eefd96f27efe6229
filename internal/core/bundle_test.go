package core

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"backdroid/internal/dexdump"
	"backdroid/internal/testapps"
)

// damagedBundles derives the invalidation matrix from a good bundle.
// Every case is damage to one part of the bundle, and every one is a
// miss of the whole bundle: dump and index alike.
func damagedBundles(good []byte) map[string][]byte {
	edit := func(f func(b []byte)) []byte {
		b := append([]byte(nil), good...)
		f(b)
		return b
	}
	indexLen := int(binary.LittleEndian.Uint32(good[22:26]))
	return map[string][]byte{
		"truncated":    good[:40],
		"empty":        {},
		"garbage":      []byte("not a bundle at all"),
		"stale-hash":   edit(func(b []byte) { b[9] ^= 0xff }),
		"version-bump": edit(func(b []byte) { binary.LittleEndian.PutUint16(b[4:6], dexdump.CodecVersion+1) }),
		"legacy-v2":    edit(func(b []byte) { binary.LittleEndian.PutUint16(b[4:6], 2) }),
		// Byte 40 lies inside the index payload, which starts right after
		// the 26-byte header.
		"payload-flip": edit(func(b []byte) { b[40] ^= 0x01 }),
		// A byte inside the dump payload, past the index payload and the
		// 16-byte dump section header.
		"dump-damage": edit(func(b []byte) { b[26+indexLen+16+10] ^= 0x01 }),
		// The last byte of the manifest payload, the bundle's last byte.
		"manifest-flip": edit(func(b []byte) { b[len(b)-1] ^= 0x01 }),
	}
}

// assertReadable fails unless data is a bundle at the current codec
// version that reads whole and carries a decodable manifest.
func assertReadable(t *testing.T, label string, data []byte) {
	t.Helper()
	b, err := dexdump.ReadBundle(data)
	if err != nil {
		t.Fatalf("%s does not read: %v", label, err)
	}
	if _, err := b.Manifest(); err != nil {
		t.Fatalf("%s manifest does not decode: %v", label, err)
	}
}

// TestBundleInvalidationMatrix pins the silent-miss contract of the
// warm-start bundle on both tiers: every kind of damage, served once
// from the disk file and once as a store entry, yields the cold verdicts,
// counts a miss of the whole bundle, leaves a bundle at the current codec
// version whose manifest reads in the tier it came from, and makes the
// next run fully warm.
func TestBundleInvalidationMatrix(t *testing.T) {
	app, err := testapps.Fixture()
	if err != nil {
		t.Fatal(err)
	}
	seedDir := t.TempDir()
	cold := analyzeApp(t, app, warmOptions(seedDir))
	good, err := os.ReadFile(dexdump.CachePath(seedDir, app.Name))
	if err != nil {
		t.Fatal(err)
	}
	fp := app.Fingerprint()

	type counts struct{ storeHit, storeMiss, dumpHit, dumpMiss, indexHit, indexMiss, builds int }
	check := func(t *testing.T, label string, r *Report, want counts) {
		t.Helper()
		s := r.Stats
		got := counts{s.BundleStoreHits, s.BundleStoreMisses, s.DumpCacheHits, s.DumpCacheMisses,
			s.Search.IndexCacheHits, s.Search.IndexCacheMisses, s.Search.IndexBuilds}
		if got != want {
			t.Errorf("%s counts = %+v, want %+v", label, got, want)
		}
		if disassembled := s.DumpLinesDisassembled != 0; disassembled == (want.dumpHit == 1) {
			t.Errorf("%s disassembled %d lines with %d dump hits", label, s.DumpLinesDisassembled, want.dumpHit)
		}
		assertSameVerdicts(t, label, cold, r)
	}

	for name, data := range damagedBundles(good) {
		t.Run("disk/"+name, func(t *testing.T) {
			dir := t.TempDir()
			path := dexdump.CachePath(dir, app.Name)
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			opts := warmOptions(dir)
			check(t, "damaged", analyzeApp(t, app, opts), counts{dumpMiss: 1, indexMiss: 1, builds: 1})
			repaired, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			assertReadable(t, "repaired file", repaired)
			check(t, "next", analyzeApp(t, app, opts), counts{dumpHit: 1, indexHit: 1})
		})
		t.Run("store/"+name, func(t *testing.T) {
			mem := newMemBundles()
			mem.PutBundle(fp, data)
			opts := DefaultOptions()
			opts.Bundles = mem
			check(t, "damaged", analyzeApp(t, app, opts), counts{storeMiss: 1, dumpMiss: 1, indexMiss: 1, builds: 1})
			repaired, _ := mem.GetBundle(fp)
			assertReadable(t, "repaired entry", repaired)
			check(t, "next", analyzeApp(t, app, opts), counts{storeHit: 1, dumpHit: 1, indexHit: 1})
		})
	}

	// An unwritable cache location (the directory path is a file) is a
	// miss on every run; a failed disk write never keeps the bundle from
	// the store.
	file := filepath.Join(t.TempDir(), "file-not-dir")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Run("disk/unwritable-dir", func(t *testing.T) {
		opts := warmOptions(file)
		for _, label := range []string{"first", "next"} {
			check(t, label, analyzeApp(t, app, opts), counts{dumpMiss: 1, indexMiss: 1, builds: 1})
		}
	})
	t.Run("store/unwritable-dir", func(t *testing.T) {
		opts := warmOptions(file)
		opts.Bundles = newMemBundles()
		check(t, "first", analyzeApp(t, app, opts), counts{storeMiss: 1, dumpMiss: 1, indexMiss: 1, builds: 1})
		check(t, "next", analyzeApp(t, app, opts), counts{storeHit: 1, dumpHit: 1, indexHit: 1})
	})
}

// TestDamagedStoreEntryFallsThroughToDisk pins the probe order: a store
// entry that fails validation is dropped and the valid disk bundle is
// probed next, so the run is warm — zero disassembly, the index decoded
// from the disk bytes — and the store gets those bytes back.
func TestDamagedStoreEntryFallsThroughToDisk(t *testing.T) {
	app, err := testapps.Fixture()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cold := analyzeApp(t, app, warmOptions(dir))
	disk, err := os.ReadFile(dexdump.CachePath(dir, app.Name))
	if err != nil {
		t.Fatal(err)
	}

	mem := newMemBundles()
	mem.PutBundle(app.Fingerprint(), []byte("garbage store entry"))
	opts := warmOptions(dir)
	opts.Bundles = mem
	r := analyzeApp(t, app, opts)
	s := r.Stats
	if s.DumpCacheHits != 1 || s.DumpLinesDisassembled != 0 {
		t.Errorf("dump hits %d, %d lines disassembled; want a disk hit with zero disassembly",
			s.DumpCacheHits, s.DumpLinesDisassembled)
	}
	if s.BundleStoreMisses != 1 || s.Search.IndexCacheHits != 1 || s.Search.IndexBuilds != 0 {
		t.Errorf("stats = %+v, want a store miss and an index loaded from disk", s)
	}
	assertSameVerdicts(t, "disk fallback", cold, r)
	if got, _ := mem.GetBundle(app.Fingerprint()); string(got) != string(disk) {
		t.Error("the store was not repaired with the disk bundle")
	}
}
