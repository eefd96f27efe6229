package dexdump

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"runtime"
	"testing"

	"backdroid/internal/dex"
)

// buildFixtureFile assembles a dex file from named classes in order; each
// class body depends only on the class name, so the same name produces
// the same body at any position.
func buildFixtureFile(t *testing.T, names ...string) (*dex.File, *Text) {
	t.Helper()
	f := dex.NewFile()
	objInit := dex.NewMethodRef("java.lang.Object", "<init>", dex.Void)
	for _, name := range names {
		c := dex.NewClass(name)
		ctor := c.Constructor()
		ctor.InvokeDirect(objInit, ctor.This()).ReturnVoid().Done()
		m := c.Method("work", dex.Void)
		m.ConstString(m.Reg(), "payload-"+name).ReturnVoid().Done()
		if err := f.AddClass(c.Build()); err != nil {
			t.Fatal(err)
		}
	}
	return f, Disassemble(f)
}

// spanOf returns the span of the named class and whether it exists.
func spanOf(t *Text, name string) (ClassSpan, bool) {
	for _, sp := range t.ClassSpans() {
		if sp.Name == name {
			return sp, true
		}
	}
	return ClassSpan{}, false
}

// TestSpanFingerprintPositionIndependent pins the content-addressing
// property everything above relies on: a class body fingerprints
// identically no matter where it sits in the dump (the "Class #N" header
// line embeds the position and must be excluded from the hash).
func TestSpanFingerprintPositionIndependent(t *testing.T) {
	_, a := buildFixtureFile(t, "com.x.Keep", "com.x.Other")
	_, b := buildFixtureFile(t, "com.x.First", "com.x.Second", "com.x.Keep")

	spA, ok := spanOf(a, "com.x.Keep")
	if !ok {
		t.Fatal("com.x.Keep missing from dump A")
	}
	spB, ok := spanOf(b, "com.x.Keep")
	if !ok {
		t.Fatal("com.x.Keep missing from dump B")
	}
	if spA.Start == spB.Start {
		t.Fatal("fixture broken: class sits at the same position in both dumps")
	}
	if SpanFingerprint(a, spA) != SpanFingerprint(b, spB) {
		t.Error("identical class body fingerprints differently at different positions")
	}
	other, _ := spanOf(a, "com.x.Other")
	if SpanFingerprint(a, spA) == SpanFingerprint(a, other) {
		t.Error("different class bodies share a fingerprint")
	}
}

// TestSpanFingerprintOneByteEdit edits each byte of one class span in
// turn: an edit to the body changes that span's fingerprint and no
// other's; an edit to the "Class #N" header line changes none.
func TestSpanFingerprintOneByteEdit(t *testing.T) {
	_, text := buildFixtureFile(t, "com.x.First", "com.x.Edited", "com.x.Last")
	sp, _ := spanOf(text, "com.x.Edited")
	payload := appendDump(nil, text)
	_, k := binary.Uvarint(payload)
	off := k
	for _, l := range textLines(text)[:sp.Start] {
		off += len(l) + 1
	}
	headerEnd := off + len(text.Line(sp.Start))
	spanEnd := off
	for _, l := range textLines(text)[sp.Start:sp.End] {
		spanEnd += len(l) + 1
	}
	want := BuildManifest(text)
	for at := off; at < spanEnd; at++ {
		if payload[at] == '\n' || payload[at]^0x01 == '\n' {
			continue // keep the line structure
		}
		edited := bytes.Clone(payload)
		edited[at] ^= 0x01
		v2, err := decodeDump(edited)
		if err != nil {
			t.Fatalf("edit at %d: %v", at, err)
		}
		got := BuildManifest(v2)
		for i, e := range got.Entries {
			changed := e.Fingerprint != want.Entries[i].Fingerprint
			if wantChanged := e.Name == sp.Name && at > headerEnd; changed != wantChanged {
				t.Fatalf("edit at byte %d of %s (header ends at %d): %s fingerprint changed = %v",
					at-off, sp.Name, headerEnd-off, e.Name, changed)
			}
		}
	}
}

// TestManifestRoundtrip pins the codec: the manifest encoded into a
// bundle decodes identically.
func TestManifestRoundtrip(t *testing.T) {
	_, text := classesFixture(t)
	data, err := EncodeBundle(text, BuildIndex(text), testFingerprint, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := BuildManifest(text)
	got, err := bundleManifest(data)
	if err != nil {
		t.Fatalf("bundle manifest did not decode: %v", err)
	}
	if len(got.Entries) != len(want.Entries) {
		t.Fatalf("manifest has %d entries, want %d", len(got.Entries), len(want.Entries))
	}
	for i := range want.Entries {
		if got.Entries[i] != want.Entries[i] {
			t.Errorf("entry %d = %+v, want %+v", i, got.Entries[i], want.Entries[i])
		}
	}
}

// TestDiffManifestsOneChangedClass pins the class-level diff of two
// versions that differ in one class body.
func TestDiffManifestsOneChangedClass(t *testing.T) {
	_, v1 := buildFixtureFile(t, "com.a.One", "com.a.Two", "com.b.Three", "com.b.Four")
	f2 := dex.NewFile()
	objInit := dex.NewMethodRef("java.lang.Object", "<init>", dex.Void)
	for _, name := range []string{"com.a.One", "com.a.Two", "com.b.Three", "com.b.Four"} {
		c := dex.NewClass(name)
		ctor := c.Constructor()
		ctor.InvokeDirect(objInit, ctor.This()).ReturnVoid().Done()
		m := c.Method("work", dex.Void)
		payload := "payload-" + name
		if name == "com.b.Four" {
			payload = "patched-" + name // the update's one changed class
		}
		m.ConstString(m.Reg(), payload).ReturnVoid().Done()
		if err := f2.AddClass(c.Build()); err != nil {
			t.Fatal(err)
		}
	}
	v2 := Disassemble(f2)

	d := DiffManifests(BuildManifest(v1), BuildManifest(v2))
	if len(d.Changed) != 1 || d.Changed[0] != "com.b.Four" || d.Unchanged != 3 {
		t.Errorf("diff = %+v, want exactly com.b.Four changed", d)
	}
}

// TestBuildPartialIndexGlobalLines pins the replay-probe contract: a
// partial index over a subset of classes returns hits with the full
// dump's line numbers.
func TestBuildPartialIndexGlobalLines(t *testing.T) {
	_, text := buildFixtureFile(t, "com.a.One", "com.a.Two", "com.b.Three")
	partial := BuildPartialIndex(text, map[string]bool{"com.b.Three": true})
	full := BuildIndex(text)

	want := full.ConstString("payload-com.b.Three")
	got := partial.ConstString("payload-com.b.Three")
	if len(want) == 0 {
		t.Fatal("fixture literal not indexed by the full index")
	}
	if !equalPostings(got, want) {
		t.Errorf("partial postings = %v, want the full index's global lines %v", got, want)
	}
	sp, _ := spanOf(text, "com.b.Three")
	for _, n := range got {
		if int(n) < sp.Start || int(n) >= sp.End {
			t.Errorf("line %d outside the class span [%d,%d)", n, sp.Start, sp.End)
		}
	}
	// Spans outside the subset contribute nothing.
	if lines := partial.ConstString("payload-com.a.One"); len(lines) != 0 {
		t.Errorf("partial index indexed an excluded class: %v", lines)
	}
}

// TestShardedIndexMatchesSingleIndex pins that an index built class by
// class (a partial index whose subset is every class) is the single index
// BuildIndex returns: same line count, same posting count, same postings.
func TestShardedIndexMatchesSingleIndex(t *testing.T) {
	_, text := classesFixture(t)
	all := make(map[string]bool)
	for _, sp := range text.ClassSpans() {
		all[sp.Name] = true
	}
	single, covered := BuildIndex(text), BuildPartialIndex(text, all)
	if covered.Lines() != single.Lines() {
		t.Errorf("lines = %d, want %d", covered.Lines(), single.Lines())
	}
	if covered.Postings() != single.Postings() {
		t.Errorf("postings = %d, single index has %d", covered.Postings(), single.Postings())
	}
	want, got := lookups(single), lookups(covered)
	for name := range want {
		if !equalPostings(got[name], want[name]) {
			t.Errorf("partial index over all classes: %s postings = %v, single = %v", name, got[name], want[name])
		}
	}
}

// bundleManifest reads data whole and decodes its manifest section.
func bundleManifest(data []byte) (*Manifest, error) {
	b, err := ReadBundle(data)
	if err != nil {
		return nil, err
	}
	return b.Manifest()
}

// manifestAt returns the offset of a bundle's manifest section header,
// or false when the bundle's framing does not reach one.
func manifestAt(data []byte) (int, bool) {
	if len(data) < codecHeaderSize {
		return 0, false
	}
	dumpAt := codecHeaderSize + int(binary.LittleEndian.Uint32(data[22:26]))
	if dumpAt < 0 || dumpAt > len(data)-dumpSectionHeaderSize {
		return 0, false
	}
	at := dumpAt + dumpSectionHeaderSize + int(binary.LittleEndian.Uint32(data[dumpAt+12:dumpAt+16]))
	if at < 0 || at > len(data)-manifestSectionHeaderSize {
		return 0, false
	}
	return at, true
}

// withManifestPayload returns a copy of bundle whose manifest section
// carries payload under a matching CRC and length, so the payload decoder
// sees it.
func withManifestPayload(bundle, payload []byte) []byte {
	at, _ := manifestAt(bundle)
	out := append([]byte(nil), bundle[:at]...)
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(payload)))
	return append(out, payload...)
}

// TestDecodeManifestRejectsHostilePayloads feeds payloads with a valid
// section CRC to the manifest decoder. Each must decode as a miss, and
// none may allocate far beyond its own size: a count read from the
// payload never sizes the entry slice past what the bytes can hold.
func TestDecodeManifestRejectsHostilePayloads(t *testing.T) {
	_, text := classesFixture(t)
	good, err := EncodeBundle(text, BuildIndex(text), testFingerprint, nil)
	if err != nil {
		t.Fatal(err)
	}
	uv := func(vals ...uint64) []byte {
		var b []byte
		for _, v := range vals {
			b = binary.AppendUvarint(b, v)
		}
		return b
	}
	// entry is a one-entry payload for class "A" spanning the whole dump.
	entry := append(uv(1, 1), 'A')
	entry = append(entry, make([]byte, 8)...)
	entry = append(entry, uv(uint64(text.LineCount()))...)
	if _, err := bundleManifest(withManifestPayload(good, entry)); err != nil {
		t.Fatalf("well-formed one-entry manifest did not decode: %v", err)
	}
	nonMinimal := append([]byte{0x81, 0x00}, entry[1:]...)
	cases := map[string][]byte{
		// 4 MiB claiming 4M entries: under the old count <= len(buf)
		// bound this sized a 160 MB entry slice before failing.
		"entry count beyond payload": append(uv(4_000_000), make([]byte, 4<<20)...),
		// A trailing byte after the last entry.
		"trailing byte": append(bytes.Clone(entry), 0),
		// Only minimal varints decode, so a decoded manifest re-encodes
		// to the bytes it came from.
		"non-minimal count": nonMinimal,
	}
	for name, payload := range cases {
		data := withManifestPayload(good, payload)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := bundleManifest(data)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: manifest decoded, want a miss", name)
		}
		if d := after.TotalAlloc - before.TotalAlloc; d >= 16<<20 {
			t.Errorf("%s: manifest decode allocated %d MB before failing", name, d>>20)
		}
	}
}

// FuzzDecodeManifest feeds arbitrary bundles to the manifest decoder,
// seeded with the fixture's bundle. Decoding must never panic; a manifest
// that decodes must cover exactly the header's dump line count and
// re-encode to the payload it came from. Each input is also tried with
// its manifest CRC resealed, so mutations reach the payload decoder
// instead of stopping at the checksum.
func FuzzDecodeManifest(f *testing.F) {
	_, text := classesFixture(f)
	data, err := EncodeBundle(text, BuildIndex(text), testFingerprint, nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecodedManifest(t, data)
		if at, ok := manifestAt(data); ok {
			checkDecodedManifest(t, withManifestPayload(data, data[at+manifestSectionHeaderSize:]))
		}
	})
}

// checkDecodedManifest decodes data's manifest and, on success, checks it
// against the header's line count and the section's payload bytes.
func checkDecodedManifest(t *testing.T, data []byte) {
	t.Helper()
	m, err := bundleManifest(data)
	if err != nil {
		return
	}
	if want := int(binary.LittleEndian.Uint32(data[14:18])); m.TotalLines() != want {
		t.Fatalf("manifest covers %d lines, header says %d", m.TotalLines(), want)
	}
	at, _ := manifestAt(data)
	if got, want := appendManifest(nil, m), data[at+manifestSectionHeaderSize:]; !bytes.Equal(got, want) {
		t.Fatalf("manifest re-encodes to %x, payload was %x", got, want)
	}
}
