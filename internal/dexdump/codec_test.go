package dexdump

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"backdroid/internal/dex"
)

// testFingerprint is the stand-in app fingerprint of the codec tests; any
// non-zero value works since encode and probe agree on it.
const testFingerprint uint64 = 0xfeedface

func roundtrip(t *testing.T, text *Text, src Source) Source {
	t.Helper()
	data, err := EncodeBundle(text, src, testFingerprint, nil)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeIndexFile(data, text)
	if err != nil {
		t.Fatal(err)
	}
	return dec
}

func assertSameLookups(t *testing.T, want, got Source, label string) {
	t.Helper()
	w, g := lookups(want), lookups(got)
	for name := range w {
		if !equalPostings(g[name], w[name]) {
			t.Errorf("%s: %s postings = %v, want %v", label, name, g[name], w[name])
		}
	}
	if got.Postings() != want.Postings() {
		t.Errorf("%s: postings count = %d, want %d", label, got.Postings(), want.Postings())
	}
	if got.ShardCount() != want.ShardCount() {
		t.Errorf("%s: shard count = %d, want %d", label, got.ShardCount(), want.ShardCount())
	}
}

// assertSameText checks a decoded dump reproduces the original Text
// exactly: lines, method attribution, class spans.
func assertSameText(t *testing.T, want, got *Text) {
	t.Helper()
	if got.String() != want.String() {
		t.Fatal("decoded dump text differs from original")
	}
	if got.LineCount() != want.LineCount() {
		t.Fatalf("decoded dump has %d lines, want %d", got.LineCount(), want.LineCount())
	}
	for i := 0; i < want.LineCount(); i++ {
		wm, wok := want.MethodAt(i)
		gm, gok := got.MethodAt(i)
		if wok != gok || (wok && wm.SootSignature() != gm.SootSignature()) {
			t.Fatalf("line %d method attribution differs: %v/%v vs %v/%v", i, wm, wok, gm, gok)
		}
	}
	ws, gs := want.ClassSpans(), got.ClassSpans()
	if len(ws) != len(gs) {
		t.Fatalf("decoded dump has %d spans, want %d", len(gs), len(ws))
	}
	for i := range ws {
		if ws[i] != gs[i] {
			t.Fatalf("span %d = %+v, want %+v", i, gs[i], ws[i])
		}
	}
}

func TestCodecRoundtripSingleIndex(t *testing.T) {
	_, text := shardFixture(t)
	idx := BuildIndex(text)
	dec := roundtrip(t, text, idx)
	if _, ok := dec.(*Index); !ok {
		t.Fatalf("one-shard file decoded to %T, want *Index", dec)
	}
	assertSameLookups(t, idx, dec, "single")
}

func TestCodecRoundtripShardedIndex(t *testing.T) {
	_, text := shardFixture(t)
	sharded := BuildShardedIndex(text, PackagePrefixPlan(text, 3), 2)
	dec := roundtrip(t, text, sharded)
	if _, ok := dec.(*ShardedIndex); !ok {
		t.Fatalf("multi-shard file decoded to %T, want *ShardedIndex", dec)
	}
	assertSameLookups(t, sharded, dec, "sharded")
}

func TestCodecRoundtripDumpSection(t *testing.T) {
	_, text := shardFixture(t)
	data, err := EncodeBundle(text, BuildIndex(text), testFingerprint, nil)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeBundleDump(data, testFingerprint)
	if err != nil {
		t.Fatal(err)
	}
	assertSameText(t, text, dec)

	// The decoded dump is a full substitute: the index section validates
	// against it just as against the original.
	idx, err := DecodeIndexFile(data, dec)
	if err != nil {
		t.Fatalf("index section rejected the decoded dump: %v", err)
	}
	assertSameLookups(t, BuildIndex(text), idx, "via decoded dump")
}

func TestCodecDumpSectionFingerprint(t *testing.T) {
	_, text := shardFixture(t)
	data, err := EncodeBundle(text, BuildIndex(text), testFingerprint, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeBundleDump(data, testFingerprint+1); err == nil {
		t.Error("dump section decoded for a different app fingerprint")
	}
	if _, err := DecodeBundleDump(data, 0); err == nil {
		t.Error("dump section decoded without a fingerprint to validate against")
	}
	// A bundle written without a fingerprint can never validate its dump.
	anon, err := EncodeBundle(text, BuildIndex(text), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeBundleDump(anon, testFingerprint); err == nil {
		t.Error("fingerprint-less bundle validated a dump probe")
	}
}

func TestCodecDeterministicBytes(t *testing.T) {
	_, text := shardFixture(t)
	sharded := BuildShardedIndex(text, PackagePrefixPlan(text, 3), 2)
	a, err := EncodeBundle(text, sharded, testFingerprint, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := EncodeBundle(text, sharded, testFingerprint, nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Error("encoding the same bundle twice produced different bytes")
	}
}

func TestAppFingerprintDeterministicAndSensitive(t *testing.T) {
	f1, _ := shardFixture(t)
	f2, _ := shardFixture(t)
	if AppFingerprint([]*dex.File{f1}) != AppFingerprint([]*dex.File{f2}) {
		t.Error("identical apps fingerprint differently")
	}
	other := sampleFile(t)
	if AppFingerprint([]*dex.File{f1}) == AppFingerprint([]*dex.File{other}) {
		t.Error("different apps share a fingerprint")
	}
	if AppFingerprint(nil) == 0 {
		t.Error("fingerprint 0 is reserved for unknown")
	}
}

// indexPayloadBounds returns the [start,end) byte range of the index
// payload in a bundle.
func indexPayloadBounds(data []byte) (int, int) {
	n := int(binary.LittleEndian.Uint32(data[24:28]))
	return codecHeaderSize, codecHeaderSize + n
}

func TestCodecRejectsInvalidIndexSections(t *testing.T) {
	_, text := shardFixture(t)
	idx := BuildIndex(text)
	good, err := EncodeBundle(text, idx, testFingerprint, nil)
	if err != nil {
		t.Fatal(err)
	}
	ipStart, ipEnd := indexPayloadBounds(good)

	corrupt := func(mutate func([]byte) []byte) []byte {
		data := append([]byte(nil), good...)
		return mutate(data)
	}
	cases := map[string][]byte{
		"empty":                   {},
		"truncated header":        good[:10],
		"truncated index payload": good[:ipStart+(ipEnd-ipStart)/2],
		"bad magic":               corrupt(func(d []byte) []byte { d[0] = 'X'; return d }),
		"version bump": corrupt(func(d []byte) []byte {
			binary.LittleEndian.PutUint16(d[4:6], CodecVersion+1)
			return d
		}),
		// An otherwise valid bundle labelled with a retired version is a
		// miss like any other version mismatch, never a legacy decode.
		"legacy version 2": corrupt(func(d []byte) []byte {
			binary.LittleEndian.PutUint16(d[4:6], 2)
			return d
		}),
		"stale hash": corrupt(func(d []byte) []byte { d[9] ^= 0xff; return d }),
		"index payload bit flip": corrupt(func(d []byte) []byte {
			d[ipEnd-1] ^= 0x01
			return d
		}),
		"index length overflow": corrupt(func(d []byte) []byte {
			binary.LittleEndian.PutUint32(d[24:28], uint32(len(d)))
			return d
		}),
	}
	for name, data := range cases {
		if _, err := DecodeIndexFile(data, text); err == nil {
			t.Errorf("%s: index decode succeeded, want error", name)
		}
		// The dump section is validated independently; it may survive
		// index-side damage, but never yield a different text.
		if dump, err := DecodeBundleDump(data, testFingerprint); err == nil && dump.String() != text.String() {
			t.Errorf("%s: dump decode succeeded with different text", name)
		}
	}
}

func TestCodecDumpCorruptionIsolatedFromIndex(t *testing.T) {
	// A bundle whose dump section is damaged must still serve its index
	// section (the engine falls back to disassembly and self-heals the
	// file), and vice versa a damaged index section must not poison the
	// dump probe.
	_, text := shardFixture(t)
	idx := BuildIndex(text)
	good, err := EncodeBundle(text, idx, testFingerprint, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, ipEnd := indexPayloadBounds(good)

	dumpFlip := append([]byte(nil), good...)
	dumpFlip[ipEnd+dumpSectionHeaderSize] ^= 0x01 // first dump payload byte
	if _, err := DecodeBundleDump(dumpFlip, testFingerprint); err == nil {
		t.Error("corrupt dump payload validated")
	}
	dec, err := DecodeIndexFile(dumpFlip, text)
	if err != nil {
		t.Fatalf("dump corruption broke the index section: %v", err)
	}
	assertSameLookups(t, idx, dec, "dump-flip")

	indexFlip := append([]byte(nil), good...)
	indexFlip[ipEnd-1] ^= 0x01
	if _, err := DecodeIndexFile(indexFlip, text); err == nil {
		t.Error("corrupt index payload validated")
	}
	dump, err := DecodeBundleDump(indexFlip, testFingerprint)
	if err != nil {
		t.Fatalf("index corruption broke the dump section: %v", err)
	}
	assertSameText(t, text, dump)
}

// TestCodecBundleCorruptionFuzz flips every byte of a valid bundle (and
// truncates at every section boundary) and asserts the silent-miss
// discipline: each decode either errors or returns data identical to the
// pristine decode — never a panic, never a wrong hit. Single-byte flips
// are always caught by the section CRCs / hashes except in fields a given
// section legitimately ignores, so equality on success is the invariant.
func TestCodecBundleCorruptionFuzz(t *testing.T) {
	_, text := shardFixture(t)
	plan := PackagePrefixPlan(text, 2)
	idx := BuildShardedIndex(text, plan, 1)
	good, err := EncodeBundle(text, idx, testFingerprint, plan)
	if err != nil {
		t.Fatal(err)
	}
	wantIdx := lookups(idx)
	wantMan, ok := DecodeManifest(good)
	if !ok {
		t.Fatal("pristine bundle has no decodable manifest")
	}
	wantFPs, wantPayloads, ok := ShardPayloads(good)
	if !ok {
		t.Fatal("pristine bundle yields no shard payloads")
	}

	check := func(name string, data []byte) {
		t.Helper()
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("%s: decode panicked: %v", name, r)
			}
		}()
		if src, err := DecodeIndexFile(data, text); err == nil {
			got := lookups(src)
			for k := range wantIdx {
				if !equalPostings(got[k], wantIdx[k]) {
					t.Fatalf("%s: index decoded successfully but %s postings differ", name, k)
				}
			}
		}
		if dump, err := DecodeBundleDump(data, testFingerprint); err == nil {
			if dump.String() != text.String() {
				t.Fatalf("%s: dump decoded successfully but text differs", name)
			}
		}
		// The manifest section obeys the same discipline: decode fails
		// (the delta engine then silently runs full) or is identical.
		if m, mok := DecodeManifest(data); mok {
			if len(m.Entries) != len(wantMan.Entries) || m.Shards != wantMan.Shards {
				t.Fatalf("%s: manifest decoded successfully but shape differs", name)
			}
			for i := range m.Entries {
				if m.Entries[i] != wantMan.Entries[i] {
					t.Fatalf("%s: manifest entry %d differs: %+v vs %+v", name, i, m.Entries[i], wantMan.Entries[i])
				}
			}
		}
		if fps, payloads, pok := ShardPayloads(data); pok {
			if len(fps) != len(wantFPs) {
				t.Fatalf("%s: shard payload count differs", name)
			}
			for i := range fps {
				if fps[i] != wantFPs[i] || !bytes.Equal(payloads[i], wantPayloads[i]) {
					t.Fatalf("%s: shard payload %d differs", name, i)
				}
			}
		}
	}

	// Every single-byte flip across the whole file: header, index payload,
	// dump section header, dump payload — all section boundaries included.
	for off := 0; off < len(good); off++ {
		data := append([]byte(nil), good...)
		data[off] ^= 0xa5
		check("flip", data)
	}
	// Truncation at every boundary and a sweep inside each section.
	_, ipEnd := indexPayloadBounds(good)
	cuts := []int{0, 3, 24, codecHeaderSize, ipEnd - 1, ipEnd,
		ipEnd + 7, ipEnd + dumpSectionHeaderSize, len(good) - 1}
	for _, cut := range cuts {
		if cut < 0 || cut > len(good) {
			continue
		}
		check("truncate", good[:cut])
	}
	// Trailing garbage.
	check("trailing", append(append([]byte(nil), good...), 0xAB))
}

func TestCodecStaleAgainstDifferentDump(t *testing.T) {
	_, text := shardFixture(t)
	idx := BuildIndex(text)
	data, err := EncodeBundle(text, idx, testFingerprint, nil)
	if err != nil {
		t.Fatal(err)
	}
	other := Disassemble(sampleFile(t))
	if _, err := DecodeIndexFile(data, other); err == nil {
		t.Error("cache for one dump decoded against another — hash check missing")
	}
}

func TestWriteLoadBundle(t *testing.T) {
	_, text := shardFixture(t)
	sharded := BuildShardedIndex(text, PackagePrefixPlan(text, 2), 1)
	path := CachePath(filepath.Join(t.TempDir(), "nested"), "com.example.app")
	if err := WriteBundle(path, text, sharded, testFingerprint, nil); err != nil {
		t.Fatal(err)
	}
	dec, err := LoadIndexCache(path, text)
	if err != nil {
		t.Fatal(err)
	}
	assertSameLookups(t, sharded, dec, "file roundtrip")

	dump, err := LoadBundleDump(path, testFingerprint)
	if err != nil {
		t.Fatal(err)
	}
	assertSameText(t, text, dump)

	// No stray temp files left behind.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("cache dir has %d entries, want just the bundle", len(entries))
	}

	if _, err := LoadIndexCache(filepath.Join(t.TempDir(), "missing.bdx"), text); err == nil {
		t.Error("loading a missing bundle must error")
	}
	if _, err := LoadBundleDump(filepath.Join(t.TempDir(), "missing.bdx"), testFingerprint); err == nil {
		t.Error("probing a missing bundle must error")
	}
}

func TestDecodePostingsRejectsMalformedLists(t *testing.T) {
	enc := func(vals ...uint64) []byte {
		var buf []byte
		for _, v := range vals {
			buf = binary.AppendUvarint(buf, v)
		}
		return buf
	}
	const maxLines = 100
	cases := map[string][]byte{
		"line beyond dump":      enc(1, 100),       // first posting == maxLines
		"delta overflow":        enc(2, 50, 1<<40), // would overflow/escape range
		"zero delta (dup line)": enc(2, 5, 0),
		"count beyond dump":     enc(101),
		"sum beyond dump":       enc(3, 60, 30, 30),
	}
	for name, buf := range cases {
		if _, _, err := decodePostings(buf, maxLines); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
	// A well-formed list still decodes.
	p, rest, err := decodePostings(enc(3, 5, 2, 90), maxLines)
	if err != nil || len(rest) != 0 {
		t.Fatalf("valid list failed: %v (rest %d)", err, len(rest))
	}
	if !equalPostings(p, []int32{5, 7, 97}) {
		t.Errorf("decoded %v, want [5 7 97]", p)
	}
}
