package dexdump

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"backdroid/internal/dex"
	"backdroid/internal/testapps"
)

// testFingerprint is the stand-in app fingerprint of the codec tests; any
// non-zero value works since encode and probe agree on it.
const testFingerprint uint64 = 0xfeedface

// Section header sizes the tests use to find offsets in a bundle: the
// dump section's header is the app fingerprint plus a frame.
const (
	dumpSectionHeaderSize     = 8 + frameSize
	manifestSectionHeaderSize = frameSize
)

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
	n := int(binary.LittleEndian.Uint32(data[22:26]))
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
	// hugeMap is a bundle with a valid header, CRCs and dump hash whose
	// first postings family claims 2^22 tokens; only ~200 bytes follow it.
	hugeMap := func() []byte {
		var payload []byte
		payload = binary.AppendUvarint(payload, uint64(text.LineCount()))
		payload = binary.AppendUvarint(payload, 0)
		payload = append(payload, 0, 0, 0, 0) // four empty side lists
		payload = binary.AppendUvarint(payload, 1<<22)
		payload = append(payload, make([]byte, 200)...)
		return withIndexPayload(good, payload)
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
			binary.LittleEndian.PutUint32(d[22:26], uint32(len(d)))
			return d
		}),
		"map count beyond payload": hugeMap(),
		"key end past the keys":    withIndexPayload(good, keyEndPastKeys(text.LineCount())),
	}
	// Only the index decoder can tell these lie; every other case fails
	// the whole bundle, dump section included.
	indexOnly := map[string]bool{"map count beyond payload": true, "key end past the keys": true}
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
		if _, err := DecodeBundleDump(data, testFingerprint); (err == nil) != indexOnly[name] {
			t.Errorf("%s: dump decode err = %v", name, err)
		}
	}
}

// withIndexPayload returns bundle with its index section replaced by
// payload, the frame resealed so that only the index decoder can reject
// it.
func withIndexPayload(bundle, payload []byte) []byte {
	_, ipEnd := indexPayloadBounds(bundle)
	data := append([]byte(nil), bundle[:codecHeaderSize]...)
	binary.LittleEndian.PutUint32(data[18:22], crc32.ChecksumIEEE(payload))
	binary.LittleEndian.PutUint32(data[22:26], uint32(len(payload)))
	data = append(data, payload...)
	return append(data, bundle[ipEnd:]...)
}

// keyEndPastKeys returns an index payload for a dump of lines lines
// whose first family holds three tokens with key ends 1, 100 and 5 over
// a 5-byte key blob: the key ends are not monotone, and the second one
// passes the blob while the last one fits it.
func keyEndPastKeys(lines int) []byte {
	var payload []byte
	payload = binary.AppendUvarint(payload, uint64(lines))
	payload = binary.AppendUvarint(payload, 3)
	payload = append(payload, 0, 0, 0, 0) // four empty side lists
	payload = append(payload, 3, 0, 0, 0, 0, 0, 0)
	for _, end := range []uint32{1, 100, 5} {
		payload = binary.LittleEndian.AppendUint32(payload, end)
	}
	for _, end := range []uint32{2, 4, 6} {
		payload = binary.LittleEndian.AppendUint32(payload, end)
	}
	payload = append(payload, "abcde"...)
	return append(payload, 1, 0, 1, 0, 1, 0) // three lists of line 0
}

// TestBundleDamageIsWholeMiss pins the reader's contract: a bundle is
// accepted whole or not at all. Every single-byte flip, every truncation
// and one trailing byte of a valid bundle makes the probe the engine runs
// — ReadBundle, then the dump section against the app fingerprint — fail,
// so no section of a damaged bundle is ever served.
func TestBundleDamageIsWholeMiss(t *testing.T) {
	_, text := classesFixture(t)
	good, err := EncodeBundle(text, BuildIndex(text), testFingerprint, nil)
	if err != nil {
		t.Fatal(err)
	}
	probe := func(data []byte) error {
		b, err := ReadBundle(data)
		if err != nil {
			return err
		}
		_, err = b.Dump(testFingerprint)
		return err
	}
	if err := probe(good); err != nil {
		t.Fatalf("pristine bundle missed: %v", err)
	}
	for off := range good {
		for _, mask := range []byte{0x01, 0x80, 0xff} {
			data := append([]byte(nil), good...)
			data[off] ^= mask
			if probe(data) == nil {
				t.Fatalf("flip %#02x at byte %d of %d: bundle accepted", mask, off, len(good))
			}
		}
	}
	for n := range good {
		if probe(good[:n]) == nil {
			t.Fatalf("truncation to %d of %d bytes: bundle accepted", n, len(good))
		}
	}
	if probe(append(append([]byte(nil), good...), 0)) == nil {
		t.Fatal("one trailing byte: bundle accepted")
	}
}

// TestCodecBundleCorruptionFuzz flips every byte of a valid bundle (and
// truncates at every section boundary) and asserts the silent-miss
// discipline: ReadBundle rejects the bundle, or each section decodes to
// an error or to data identical to the pristine decode — never a panic,
// never a wrong hit. TestBundleDamageIsWholeMiss pins that the engine's
// probe misses on each of these inputs; this test pins that no section
// decoder can be tricked past it.
func TestCodecBundleCorruptionFuzz(t *testing.T) {
	_, text := classesFixture(t)
	idx := BuildIndex(text)
	good, err := EncodeBundle(text, idx, testFingerprint, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantIdx := lookups(idx)
	wantMan, err := bundleManifest(good)
	if err != nil {
		t.Fatalf("pristine bundle has no decodable manifest: %v", err)
	}

	check := func(name string, data []byte) {
		t.Helper()
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("%s: decode panicked: %v", name, r)
			}
		}()
		b, err := ReadBundle(data)
		if err != nil {
			return
		}
		if src, err := b.Index(text); err == nil {
			got := lookups(src)
			for k := range wantIdx {
				if !equalPostings(got[k], wantIdx[k]) {
					t.Fatalf("%s: index decoded successfully but %s postings differ", name, k)
				}
			}
		}
		if dump, err := b.Dump(testFingerprint); err == nil {
			if dump.String() != text.String() {
				t.Fatalf("%s: dump decoded successfully but text differs", name)
			}
		}
		if m, err := b.Manifest(); err == nil {
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
// seeded with the fixture's bundle, the version-4 and version-5 bundles
// of the Fixture app (legacy layouts, which must decode as a miss) and
// the fixture's bundle with a directory whose key ends are not monotone
// (keyEndPastKeys). Decoding must never panic; it must accept exactly what the
// version 5 style full decode (decodeIndexOracle) accepts, and a decoded
// index must answer every lookup as the oracle's maps do, with strictly
// ascending postings inside the dump. Each input is also tried resealed —
// header hash, line count and index CRC recomputed for the fixture
// dump — so mutations reach the payload decoders instead of stopping at
// a checksum.
func FuzzDecodeIndexFile(f *testing.F) {
	_, text := classesFixture(f)
	data, err := EncodeBundle(text, BuildIndex(text), testFingerprint, nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add(testapps.FixtureV4Bundle())
	f.Add(testapps.FixtureV5Bundle())
	f.Add(withIndexPayload(data, keyEndPastKeys(text.LineCount())))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecodedIndex(t, data, text)
		if len(data) < codecHeaderSize {
			return
		}
		if start, end := indexPayloadBounds(data); end <= len(data) {
			payload := data[start:end]
			sealed := append([]byte(nil), data...)
			binary.LittleEndian.PutUint64(sealed[6:14], DumpHash(text))
			binary.LittleEndian.PutUint32(sealed[14:18], uint32(text.LineCount()))
			binary.LittleEndian.PutUint32(sealed[18:22], crc32.ChecksumIEEE(payload))
			checkDecodedIndex(t, sealed, text)
		}
	})
}

// checkDecodedIndex decodes data against text and against the oracle.
// Both must accept or both reject. On accept, every token the oracle
// holds, plus misses next to it, must look up alike through every
// accessor, the side lists and counters must agree, the payload must be
// the one the oracle's maps encode to, and every lookup must return
// strictly ascending postings in [0, LineCount()).
func checkDecodedIndex(t *testing.T, data []byte, text *Text) {
	t.Helper()
	x, err := DecodeIndexFile(data, text)
	var want *Index
	oerr := fmt.Errorf("bundle not read")
	b, rerr := ReadBundle(data)
	if rerr == nil && b.dumpSum == DumpHash(text) && b.lines == text.LineCount() {
		want, oerr = decodeIndexOracle(b.index, b.lines)
	}
	if (err == nil) != (oerr == nil) {
		t.Fatalf("index decode error %v, oracle error %v", err, oerr)
	}
	if err != nil {
		return
	}
	if x.Lines() != want.Lines() || x.Postings() != want.Postings() {
		t.Fatalf("lines/postings %d/%d, oracle %d/%d", x.Lines(), x.Postings(), want.Lines(), want.Postings())
	}
	if !reflect.DeepEqual(indexSides(x), indexSides(want)) {
		t.Fatalf("side lists %v, oracle %v", indexSides(x), indexSides(want))
	}
	if re, err := appendIndex(nil, want); err != nil || !bytes.Equal(re, b.index) {
		t.Fatalf("accepted index payload is not what its maps encode to (err %v)", err)
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
	probes := map[string]func(*Index, string) []int32{
		"InvokeBySig": (*Index).InvokeBySig, "InvokeByNamePrefix": (*Index).InvokeByNamePrefix,
		"CtorByPrefix": (*Index).CtorByPrefix, "ConstClass": (*Index).ConstClass,
		"ConstString": (*Index).ConstString, "FieldBySig": (*Index).FieldBySig, "ClassUse": (*Index).ClassUse,
	}
	for f, m := range want.maps {
		for tok := range m {
			if got := x.list(family(f), tok); !slices.Equal(got, m[tok]) {
				t.Fatalf("family %d token %q: lookup %v, oracle %v", f, tok, got, m[tok])
			}
			for _, probe := range []string{tok, tok + "\x00", tok[:len(tok)/2], ""} {
				for name, lookup := range probes {
					got, wantP := lookup(x, probe), lookup(want, probe)
					if !slices.Equal(got, wantP) {
						t.Fatalf("%s(%q) = %v, oracle %v", name, probe, got, wantP)
					}
					check(name+"("+probe+")", got)
				}
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
		"line count": func(b []byte) { binary.LittleEndian.PutUint32(b[14:18], uint32(dec.LineCount()+1)) },
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

// refSum is the bundle's content sum computed from its definition with
// nothing but hash/crc32: CRC-32 (IEEE) in the high half, CRC-32C in the
// low half.
func refSum(b []byte) uint64 {
	return uint64(crc32.ChecksumIEEE(b))<<32 | uint64(crc32.Checksum(b, crc32.MakeTable(crc32.Castagnoli)))
}

// refSpanSum is a span fingerprint from its definition: the sum of the
// class name, a zero byte, then every line of the span after its
// "Class #N" header, each with its newline — assembled from Line, not
// from offsets into the dump text.
func refSpanSum(t *Text, sp ClassSpan) uint64 {
	var b strings.Builder
	b.WriteString(sp.Name)
	b.WriteByte(0)
	for _, l := range textLines(t)[min(sp.Start+1, sp.End):sp.End] {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	return refSum([]byte(b.String()))
}

// TestContentSumsMatchReference pins both content sums of the codec to
// the reference over the 24-app bench corpus and the fixture app: the
// DumpHash of every text, the SpanFingerprint of every class span, the
// manifest BuildManifest computes and the manifest a bundle decodes to.
func TestContentSumsMatchReference(t *testing.T) {
	texts := map[string]*Text{}
	for _, app := range loadBenchCorpus(t) {
		texts[app.name] = app.text
	}
	app, err := testapps.Fixture()
	if err != nil {
		t.Fatal(err)
	}
	merged, err := app.MergedDex()
	if err != nil {
		t.Fatal(err)
	}
	texts["fixture"] = Disassemble(merged)
	for name, text := range texts {
		if got, want := DumpHash(text), refSum([]byte(text.String())); got != want {
			t.Errorf("%s: DumpHash %#016x, reference %#016x", name, got, want)
		}
		data, err := EncodeBundle(text, BuildIndex(text), testFingerprint, nil)
		if err != nil {
			t.Fatal(err)
		}
		decoded, err := bundleManifest(data)
		if err != nil {
			t.Fatalf("%s: bundle manifest does not decode: %v", name, err)
		}
		built := BuildManifest(text)
		for i, sp := range text.ClassSpans() {
			want := refSpanSum(text, sp)
			if got := SpanFingerprint(text, sp); got != want {
				t.Errorf("%s: %s: SpanFingerprint %#016x, reference %#016x", name, sp.Name, got, want)
			}
			if built.Entries[i].Fingerprint != want || decoded.Entries[i].Fingerprint != want {
				t.Errorf("%s: %s: manifest fingerprint %#016x (built) %#016x (decoded), reference %#016x",
					name, sp.Name, built.Entries[i].Fingerprint, decoded.Entries[i].Fingerprint, want)
			}
		}
	}
}

// TestDumpSectionHashBack pins the last check of DecodeBundleDump: a
// bundle whose header sum disagrees with its dump text is a miss even
// when every payload CRC is valid — whether the header sum is wrong or
// the text was altered and its payload CRC recomputed.
func TestDumpSectionHashBack(t *testing.T) {
	_, text := classesFixture(t)
	good, err := EncodeBundle(text, BuildIndex(text), testFingerprint, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, ipEnd := indexPayloadBounds(good)
	sec := ipEnd // start of the dump section header
	payloadLen := int(binary.LittleEndian.Uint32(good[sec+12 : sec+16]))

	headerSum := append([]byte(nil), good...)
	binary.LittleEndian.PutUint64(headerSum[6:14], DumpHash(text)+1)

	// Change one letter of the dump text, keeping its length and line
	// structure, and reseal the dump payload's CRC.
	edited := append([]byte(nil), good...)
	ep := edited[sec+dumpSectionHeaderSize : sec+dumpSectionHeaderSize+payloadLen]
	at := strings.Index(text.String(), "Class descriptor")
	if at < 0 {
		t.Fatal("fixture dump has no class descriptor line")
	}
	_, k := binary.Uvarint(ep)
	ep[k+at] ^= 0x20 // 'C' -> 'c'
	binary.LittleEndian.PutUint32(edited[sec+8:sec+12], crc32.ChecksumIEEE(ep))

	for name, data := range map[string][]byte{"header sum": headerSum, "edited text": edited} {
		if _, err := DecodeBundleDump(data, testFingerprint); err == nil {
			t.Errorf("%s: dump section decoded although its text does not sum to the header", name)
		}
	}
	// The edited text is the only damage: everything before the final
	// check holds, so this is the hash-back check's catch alone.
	if _, err := decodeDump(ep); err != nil {
		t.Fatalf("edited payload no longer decodes: %v", err)
	}
	if dec, err := DecodeBundleDump(good, testFingerprint); err != nil || DumpHash(dec) != refSum([]byte(text.String())) {
		t.Fatalf("pristine bundle: err %v, or its decoded text is memoized with a wrong sum", err)
	}
}

// TestLegacyV3BundleMisses: the bundles codec versions 3, 4 and 5 wrote
// for the Fixture app, byte for byte, are misses in every section
// decoder, and would be even if the version gate were gone: the FNV-64a
// sums of version 3 do not match the CRC sums, versions 3 and 4 frame a
// header with a layout field and an index of nine postings maps, and
// version 5, framed like version 6, lays out neither big section for
// lookup (no line table, no postings directory).
func TestLegacyV3BundleMisses(t *testing.T) {
	app, err := testapps.Fixture()
	if err != nil {
		t.Fatal(err)
	}
	merged, err := app.MergedDex()
	if err != nil {
		t.Fatal(err)
	}
	text := Disassemble(merged)
	fp := AppFingerprint(app.Dexes)
	for _, legacy := range []struct {
		version uint16
		data    []byte
		pin     uint64 // the bundle pin TestGoldenBundles held for the fixture
		sum     uint64 // the header's dump sum of that version
		sumAt   int    // where the header holds it
	}{
		{3, testapps.FixtureV3Bundle(), 0xefbfb8ccc6a7b27d, fnv64a([]byte(text.String())), 8},
		{4, testapps.FixtureV4Bundle(), 0xdb5913680362905d, DumpHash(text), 8},
		{5, testapps.FixtureV5Bundle(), 0x9d0964bf90704f9a, DumpHash(text), 6},
	} {
		name := fmt.Sprintf("v%d", legacy.version)
		if got := fnv64a(legacy.data); got != legacy.pin {
			t.Fatalf("%s: legacy bundle hashes to %#016x, that version wrote %#016x", name, got, legacy.pin)
		}
		if v := binary.LittleEndian.Uint16(legacy.data[4:6]); v != legacy.version {
			t.Fatalf("%s: legacy bundle is version %d", name, v)
		}
		// Versions 3 and 4 put the dump sum after the 2-byte layout field.
		if binary.LittleEndian.Uint64(legacy.data[legacy.sumAt:legacy.sumAt+8]) != legacy.sum {
			t.Fatalf("%s: legacy bundle does not carry the dump sum of today's fixture dump", name)
		}
		relabelled := bytes.Clone(legacy.data)
		binary.LittleEndian.PutUint16(relabelled[4:6], CodecVersion)
		for label, data := range map[string][]byte{name: legacy.data, name + " relabelled": relabelled} {
			if _, err := DecodeBundleDump(data, fp); err == nil {
				t.Errorf("%s: dump section decoded", label)
			}
			if _, err := DecodeIndexFile(data, text); err == nil {
				t.Errorf("%s: index section decoded", label)
			}
			// A relabelled version 5 bundle frames like the current
			// version; only its sections tell it apart.
			if _, err := ReadBundle(data); err == nil && label != "v5 relabelled" {
				t.Errorf("%s: bundle read", label)
			}
		}
	}
}

// TestDumpHashConcurrent asks several goroutines at once for the hash of
// one text, as engines sharing a decoded dump do.
func TestDumpHashConcurrent(t *testing.T) {
	_, text := classesFixture(t)
	want := refSum([]byte(text.full))
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
			t.Errorf("goroutine %d: DumpHash = %#x, want %#x", i, v, want)
		}
	}
}

func TestWriteLoadBundle(t *testing.T) {
	_, text := classesFixture(t)
	idx := BuildIndex(text)
	path := CachePath(filepath.Join(t.TempDir(), "nested"), "com.example.app")
	enc, err := EncodeBundle(text, idx, testFingerprint, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteBundleBytes(path, enc); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeIndexFile(data, text)
	if err != nil {
		t.Fatal(err)
	}
	assertSameLookups(t, idx, dec, "file roundtrip")
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

	if _, err := DecodeIndexFile(nil, text); err == nil {
		t.Error("decoding a missing bundle's index must error")
	}
	if _, err := DecodeBundleDump(nil, testFingerprint); err == nil {
		t.Error("probing a missing bundle must error")
	}
}

// TestWriteBundleBytesRenameFailureLeavesNoTemp pins the temp-file
// cleanup: when the rename onto the destination fails (here a non-empty
// directory sits at the bundle path), the write errors and the .bdx-*
// temp file is removed — a job retrying against such a path must not
// leave one more file behind each time.
func TestWriteBundleBytesRenameFailureLeavesNoTemp(t *testing.T) {
	dir := t.TempDir()
	path := CachePath(dir, "com.example.app")
	if err := os.MkdirAll(filepath.Join(path, "occupied"), 0o755); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := WriteBundleBytes(path, []byte("bundle")); err == nil {
			t.Fatal("rename onto a non-empty directory must fail")
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		if ent.Name() != filepath.Base(path) {
			t.Errorf("stray file %q left in the cache dir", ent.Name())
		}
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
		var none []int32
		if _, _, err := decodePostings(buf, maxLines, &none); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
		if _, _, err := checkPostings(buf, maxLines); err == nil {
			t.Errorf("%s: checked without error", name)
		}
	}
	if n, rest, err := checkPostings(enc(3, 5, 2, 90, 7), maxLines); err != nil || n != 3 || !bytes.Equal(rest, enc(7)) {
		t.Errorf("valid list checked as %d postings, rest %v, err %v", n, rest, err)
	}
	got := make([]int32, 3)
	if rest := fillPostings(enc(5, 2, 90, 7), got); !equalPostings(got, []int32{5, 7, 97}) || !bytes.Equal(rest, enc(7)) {
		t.Errorf("filled %v, rest %v", got, rest)
	}
	// A well-formed list still decodes, into the arena when it fits and
	// into its own array when it does not.
	arena := make([]int32, 0, 5)
	p, rest, err := decodePostings(enc(3, 5, 2, 90), maxLines, &arena)
	if err != nil || len(rest) != 0 {
		t.Fatalf("valid list failed: %v (rest %d)", err, len(rest))
	}
	if !equalPostings(p, []int32{5, 7, 97}) {
		t.Errorf("decoded %v, want [5 7 97]", p)
	}
	q, _, err := decodePostings(enc(2, 1, 1), maxLines, &arena)
	if err != nil || !equalPostings(q, []int32{1, 2}) || len(arena) != 5 || &q[0] != &arena[3] {
		t.Fatalf("second list %v (err %v) is not the arena's tail %v", q, err, arena)
	}
	_ = append(p, 99) // the full slice expression makes this copy
	if !equalPostings(q, []int32{1, 2}) {
		t.Errorf("appending to the first list overwrote the second: %v", q)
	}
	r, _, err := decodePostings(enc(1, 4), maxLines, &arena)
	if err != nil || !equalPostings(r, []int32{4}) || len(arena) != 5 {
		t.Errorf("list past a full arena: %v (err %v), arena %v", r, err, arena)
	}
}

// FuzzDecodeDump requires decodeDump to accept and reject exactly what
// decodeDumpOracle does, and on accept to agree with it on every line,
// every method attribution, the method table and the class spans, and to
// re-encode to its input. The oracle splits the text on its newlines, so
// a stored line table that disagrees with them is a reject. Seeds are the
// dump payloads of the fixture and of the 24-app bench corpus, whole and
// truncated, then the fixture's payload with line tables that disagree
// with its text (lineTableMismatches).
func FuzzDecodeDump(f *testing.F) {
	app, err := testapps.Fixture()
	if err != nil {
		f.Fatal(err)
	}
	merged, err := app.MergedDex()
	if err != nil {
		f.Fatal(err)
	}
	texts := []*Text{Disassemble(merged)}
	for _, a := range loadBenchCorpus(f) {
		texts = append(texts, a.text)
	}
	for _, text := range texts {
		payload := appendDump(nil, text)
		_, k := binary.Uvarint(payload)
		f.Add(payload)
		// Cut inside the text, just past it, mid tables and one byte short.
		for _, n := range []int{k + len(text.String())/2, k + len(text.String()), (k + len(text.String()) + len(payload)) / 2, len(payload) - 1} {
			f.Add(payload[:n])
		}
	}
	for _, bad := range lineTableMismatches(texts[0]) {
		f.Add(bad)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := decodeDump(data)
		want, oerr := decodeDumpOracle(data)
		if (err == nil) != (oerr == nil) {
			t.Fatalf("decodeDump error %v, oracle error %v", err, oerr)
		}
		if err != nil {
			return
		}
		if got.String() != want.full || got.LineCount() != len(want.lines) {
			t.Fatalf("text of %d lines, oracle has %d", got.LineCount(), len(want.lines))
		}
		for i, line := range want.lines {
			if got.Line(i) != line {
				t.Fatalf("line %d = %q, oracle %q", i, got.Line(i), line)
			}
			m, ok := got.MethodAt(i)
			wok := want.methodOfLine[i] >= 0
			if ok != wok || (ok && !reflect.DeepEqual(m, want.methods[want.methodOfLine[i]])) {
				t.Fatalf("line %d method %v/%v, oracle index %d", i, m, ok, want.methodOfLine[i])
			}
		}
		if !reflect.DeepEqual(got.Methods(), want.methods) {
			t.Fatal("method table differs from the oracle's")
		}
		if !slices.Equal(got.ClassSpans(), want.spans) {
			t.Fatalf("class spans %v, oracle %v", got.ClassSpans(), want.spans)
		}
		if re := appendDump(nil, got); !bytes.Equal(re, data) {
			t.Fatal("accepted payload does not re-encode to its input")
		}
	})
}

// lineTableMismatches returns text's dump payload with its line table
// altered so that it no longer lists the lengths between the text's
// newlines: a line one byte short, a line that swallows the next one,
// two lines of different lengths swapped, a last line that runs past the
// text, a length in a non-minimal varint, and a text with one newline
// more than the table (a line edited in place, the table and length
// kept).
func lineTableMismatches(text *Text) [][]byte {
	payload := appendDump(nil, text)
	_, k := binary.Uvarint(payload)
	textAt := k
	tableAt := textAt + len(text.String())
	lengths := make([]uint64, text.LineCount())
	for i := range lengths {
		lengths[i] = uint64(len(text.Line(i)))
	}
	_, k = binary.Uvarint(payload[tableAt:])
	tail := payload[tableAt+k:]
	for range lengths {
		_, k = binary.Uvarint(tail)
		tail = tail[k:]
	}
	// withTable re-encodes the payload with the table edit writes.
	withTable := func(edit func(table []byte, lengths []uint64) []byte) []byte {
		table := binary.AppendUvarint(nil, uint64(len(lengths)))
		table = edit(table, slices.Clone(lengths))
		p := append(bytes.Clone(payload[:tableAt]), table...)
		return append(p, tail...)
	}
	appendAll := func(table []byte, lengths []uint64) []byte {
		for _, l := range lengths {
			table = binary.AppendUvarint(table, l)
		}
		return table
	}
	swap := 1
	for lengths[swap] == lengths[swap+1] {
		swap++
	}
	return [][]byte{
		withTable(func(t []byte, l []uint64) []byte { l[1]--; return appendAll(t, l) }),
		withTable(func(t []byte, l []uint64) []byte { l[1] += l[2] + 1; return appendAll(t, l) }),
		withTable(func(t []byte, l []uint64) []byte {
			l[swap], l[swap+1] = l[swap+1], l[swap]
			return appendAll(t, l)
		}),
		withTable(func(t []byte, l []uint64) []byte { l[len(l)-1]++; return appendAll(t, l) }),
		withTable(func(t []byte, l []uint64) []byte {
			t = binary.AppendUvarint(appendAll(t, l[:1]), l[1])
			t[len(t)-1] |= 0x80 // l[1] with a trailing zero byte
			return appendAll(append(t, 0), l[2:])
		}),
		func() []byte {
			p := bytes.Clone(payload)
			p[textAt+int(text.ends[1])-1] = '\n'
			return p
		}(),
	}
}

// TestDumpLineTableMustMatchNewlines: a dump payload whose line table
// disagrees with its text's newlines is rejected, by decodeDump and by
// the line-splitting oracle alike.
func TestDumpLineTableMustMatchNewlines(t *testing.T) {
	_, text := classesFixture(t)
	if _, err := decodeDump(appendDump(nil, text)); err != nil {
		t.Fatalf("pristine payload rejected: %v", err)
	}
	for i, bad := range lineTableMismatches(text) {
		if _, err := decodeDump(bad); err == nil {
			t.Errorf("mismatch %d: decodeDump accepted the line table", i)
		}
		if _, err := decodeDumpOracle(bad); err == nil {
			t.Errorf("mismatch %d: the oracle accepted the line table", i)
		}
	}
}

// TestBundleDumpDoesNotCopyText: decoding a bench-corpus bundle's dump
// section allocates less than the dump text itself, so the text is read
// where the bundle holds it rather than copied out. Allocated bytes are
// counted, not timed.
func TestBundleDumpDoesNotCopyText(t *testing.T) {
	for _, app := range loadBenchCorpus(t) {
		data, err := EncodeBundle(app.text, BuildIndex(app.text), app.fingerprint, nil)
		if err != nil {
			t.Fatal(err)
		}
		r, err := ReadBundle(data)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		text, err := r.Dump(app.fingerprint)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= uint64(len(text.String())) {
			t.Errorf("%s: Dump allocated %d bytes for a %d-byte text", app.name, alloc, len(text.String()))
		}
	}
}

// TestBundleDumpAllocsFixed: decoding a bundle's dump section makes the
// same small number of allocations for every app of the bench corpus,
// whatever its line and method counts: every table is sized once from a
// stored count, and every string is a slice of one string-section copy.
func TestBundleDumpAllocsFixed(t *testing.T) {
	const maxAllocs = 8
	first := -1.0
	for _, app := range loadBenchCorpus(t) {
		data, err := EncodeBundle(app.text, BuildIndex(app.text), app.fingerprint, nil)
		if err != nil {
			t.Fatal(err)
		}
		r, err := ReadBundle(data)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := r.Dump(app.fingerprint); err != nil {
				t.Fatal(err)
			}
		})
		if first < 0 {
			first = allocs
		}
		if allocs != first || allocs > maxAllocs {
			t.Errorf("%s (%d lines, %d methods): Dump made %v allocations, want %v for every app and at most %d",
				app.name, app.text.LineCount(), len(app.text.Methods()), allocs, first, maxAllocs)
		}
	}
}

// TestEncodeBundleSizedExactly pins that EncodeBundle sizes its buffer
// to the bundle it writes, with a built index and with one decoded from
// a bundle: a store keeps the buffer whole, spare capacity included.
func TestEncodeBundleSizedExactly(t *testing.T) {
	for _, app := range loadBenchCorpus(t) {
		data, err := EncodeBundle(app.text, BuildIndex(app.text), app.fingerprint, nil)
		if err != nil {
			t.Fatal(err)
		}
		if cap(data) != len(data) {
			t.Errorf("%s: bundle of %d bytes in a buffer of %d", app.name, len(data), cap(data))
		}
		b, err := ReadBundle(data)
		if err != nil {
			t.Fatal(err)
		}
		x, err := b.Index(app.text)
		if err != nil {
			t.Fatal(err)
		}
		again, err := EncodeBundle(app.text, x, app.fingerprint, nil)
		if err != nil {
			t.Fatal(err)
		}
		if cap(again) != len(again) || !bytes.Equal(again, data) {
			t.Errorf("%s: re-encoding the decoded index gave %d bytes in a buffer of %d, equal %v",
				app.name, len(again), cap(again), bytes.Equal(again, data))
		}
	}
}
