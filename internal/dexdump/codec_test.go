package dexdump

import (
	"encoding/binary"
	"hash/crc32"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"backdroid/internal/dex"
)

// testFingerprint is the stand-in app fingerprint of the codec tests; any
// non-zero value works since encode and probe agree on it.
const testFingerprint uint64 = 0xfeedface

func roundtrip(t *testing.T, text *Text, src *Index) *Index {
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

func assertSameLookups(t *testing.T, want, got *Index, label string) {
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
	_, text := classesFixture(t)
	idx := BuildIndex(text)
	dec := roundtrip(t, text, idx)
	assertSameLookups(t, idx, dec, "single")
}

func TestCodecRoundtripDumpSection(t *testing.T) {
	_, text := classesFixture(t)
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
	_, text := classesFixture(t)
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
	_, text := classesFixture(t)
	idx := BuildIndex(text)
	a, err := EncodeBundle(text, idx, testFingerprint, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := EncodeBundle(text, idx, testFingerprint, nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Error("encoding the same bundle twice produced different bytes")
	}
}

func TestAppFingerprintDeterministicAndSensitive(t *testing.T) {
	f1, _ := classesFixture(t)
	f2, _ := classesFixture(t)
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
	_, text := classesFixture(t)
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
	// hugeMap is a small bundle with a valid header, CRC and dump hash
	// whose first postings map claims 2^22 keys; only ~200 bytes follow.
	hugeMap := func() []byte {
		var payload []byte
		payload = binary.AppendUvarint(payload, uint64(text.LineCount()))
		payload = binary.AppendUvarint(payload, 0)
		payload = binary.AppendUvarint(payload, 1<<22)
		payload = append(payload, make([]byte, 200)...)
		data := append([]byte(nil), good[:codecHeaderSize]...)
		binary.LittleEndian.PutUint32(data[20:24], crc32.ChecksumIEEE(payload))
		binary.LittleEndian.PutUint32(data[24:28], uint32(len(payload)))
		return append(data, payload...)
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
		// The layout field is always 1; a bundle claiming two index
		// shards (the retired multi-part layout) is a miss.
		"two shards": corrupt(func(d []byte) []byte {
			binary.LittleEndian.PutUint16(d[6:8], 2)
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
		"map count beyond payload": hugeMap(),
	}
	for name, data := range cases {
		// A rejected section must be rejected cheaply: no count read
		// from the file may size an allocation the payload cannot fill.
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := DecodeIndexFile(data, text)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: index decode succeeded, want error", name)
		}
		if d := after.TotalAlloc - before.TotalAlloc; d >= 8<<20 {
			t.Errorf("%s: index decode allocated %d MB before failing", name, d>>20)
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
	_, text := classesFixture(t)
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
	_, text := classesFixture(t)
	idx := BuildIndex(text)
	good, err := EncodeBundle(text, idx, testFingerprint, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantIdx := lookups(idx)
	wantMan, ok := DecodeManifest(good)
	if !ok {
		t.Fatal("pristine bundle has no decodable manifest")
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
			if len(m.Entries) != len(wantMan.Entries) {
				t.Fatalf("%s: manifest decoded successfully but shape differs", name)
			}
			for i := range m.Entries {
				if m.Entries[i] != wantMan.Entries[i] {
					t.Fatalf("%s: manifest entry %d differs: %+v vs %+v", name, i, m.Entries[i], wantMan.Entries[i])
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

// FuzzDecodeIndexFile feeds arbitrary bundles to the index decoder,
// seeded with the fixture's bundle and the same bundle claiming two index
// shards (the retired multi-part layout, which must decode as a miss).
// Decoding must never panic, and a decoded index must answer every lookup
// with strictly ascending postings inside the dump. Each input is also tried
// resealed — header hash, line count and index CRC recomputed for the
// fixture dump — so mutations reach the payload decoders instead of
// stopping at a checksum.
func FuzzDecodeIndexFile(f *testing.F) {
	_, text := classesFixture(f)
	data, err := EncodeBundle(text, BuildIndex(text), testFingerprint, nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	twoShards := append([]byte(nil), data...)
	binary.LittleEndian.PutUint16(twoShards[6:8], 2)
	f.Add(twoShards)
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecodedIndex(t, data, text)
		if payload, err := indexSection(data); err == nil {
			sealed := append([]byte(nil), data...)
			binary.LittleEndian.PutUint64(sealed[8:16], DumpHash(text))
			binary.LittleEndian.PutUint32(sealed[16:20], uint32(text.LineCount()))
			binary.LittleEndian.PutUint32(sealed[20:24], crc32.ChecksumIEEE(payload))
			checkDecodedIndex(t, sealed, text)
		}
	})
}

// checkDecodedIndex decodes data against text and, on success, probes
// every lookup with every token the decoded index holds plus the fixture
// tokens, requiring strictly ascending postings in [0, LineCount()).
func checkDecodedIndex(t *testing.T, data []byte, text *Text) {
	t.Helper()
	x, err := DecodeIndexFile(data, text)
	if err != nil {
		return
	}
	check := func(name string, p []int32) {
		t.Helper()
		for i, n := range p {
			if n < 0 || int(n) >= text.LineCount() {
				t.Fatalf("%s: posting %d outside the %d-line dump", name, n, text.LineCount())
			}
			if i > 0 && n <= p[i-1] {
				t.Fatalf("%s: postings not strictly ascending: %v", name, p)
			}
		}
	}
	for name, p := range lookups(x) {
		check(name, p)
	}
	probes := map[string]func(string) []int32{
		"InvokeBySig": x.InvokeBySig, "InvokeByName": x.InvokeByName,
		"InvokeByNamePrefix": x.InvokeByNamePrefix, "CtorByPrefix": x.CtorByPrefix,
		"NewInstance": x.NewInstance, "ConstClass": x.ConstClass,
		"ConstString": x.ConstString, "FieldBySig": x.FieldBySig, "ClassUse": x.ClassUse,
	}
	for _, m := range x.maps() {
		for tok := range *m {
			for name, lookup := range probes {
				check(name+"("+tok+")", lookup(tok))
			}
		}
	}
}

func TestCodecStaleAgainstDifferentDump(t *testing.T) {
	_, text := classesFixture(t)
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

// TestDumpHashMemoKeepsIndexChecks pins that memoizing DumpHash removed
// no validation: once a successful DecodeBundleDump has hashed the text,
// DecodeIndexFile still compares the header's dump hash, line count and
// CRC against it.
func TestDumpHashMemoKeepsIndexChecks(t *testing.T) {
	_, text := classesFixture(t)
	good, err := EncodeBundle(text, BuildIndex(text), testFingerprint, nil)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeBundleDump(good, testFingerprint)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeIndexFile(good, dec); err != nil {
		t.Fatalf("good bundle rejected: %v", err)
	}
	corrupt := map[string]func(b []byte){
		"dump hash":  func(b []byte) { b[8] ^= 0x01 },
		"line count": func(b []byte) { binary.LittleEndian.PutUint32(b[16:20], uint32(dec.LineCount()+1)) },
		"index crc":  func(b []byte) { b[20] ^= 0x01 },
	}
	for name, mutate := range corrupt {
		bad := append([]byte(nil), good...)
		mutate(bad)
		if _, err := DecodeIndexFile(bad, dec); err == nil {
			t.Errorf("%s: wrong header accepted against an already-hashed dump", name)
		}
	}
}

// TestDumpHashConcurrent asks several goroutines at once for the hash of
// one text, as engines sharing a decoded dump do.
func TestDumpHashConcurrent(t *testing.T) {
	_, text := classesFixture(t)
	h := fnv.New64a()
	h.Write([]byte(text.full))
	want := h.Sum64()
	got := make([]uint64, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = DumpHash(text)
		}()
	}
	wg.Wait()
	for i, v := range got {
		if v != want {
			t.Errorf("goroutine %d: DumpHash = %#x, want FNV-64a %#x", i, v, want)
		}
	}
}

func TestWriteLoadBundle(t *testing.T) {
	_, text := classesFixture(t)
	idx := BuildIndex(text)
	path := CachePath(filepath.Join(t.TempDir(), "nested"), "com.example.app")
	if err := WriteBundle(path, text, idx, testFingerprint); err != nil {
		t.Fatal(err)
	}
	dec, err := LoadIndexCache(path, text)
	if err != nil {
		t.Fatal(err)
	}
	assertSameLookups(t, idx, dec, "file roundtrip")

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dump, err := DecodeBundleDump(data, testFingerprint)
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
	if _, err := DecodeBundleDump(nil, testFingerprint); err == nil {
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
