package dexdump

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"unsafe"

	"backdroid/internal/dex"
)

// Persistent cache codec. A serialized bundle lives next to the APK (or in
// a configured cache directory) so repeated analyses of the same app skip
// tokenization and disassembly. The file is a versioned multi-section
// bundle:
//
//	offset  size  field
//	0       4     magic "BDIX"
//	4       2     codec version (little endian)
//	6       8     content sum of the full dump text (see DumpHash)
//	14      4     dump line count
//	18      4     IEEE CRC-32 of the index payload
//	22      4     index payload length
//	26      ...   index payload: the Index's lines/postings counters,
//	              seven postings maps, four side lists
//	...     8     app fingerprint (FNV-64a over the encoded dex files)
//	...     4     IEEE CRC-32 of the dump payload
//	...     4     dump payload length
//	...     ...   dump payload: the serialized dexdump.Text
//	...     4     IEEE CRC-32 of the manifest payload
//	...     4     manifest payload length
//	...     ...   manifest payload: the serialized Manifest
//
// Postings maps are encoded with sorted keys and delta-varint line
// lists, so files are deterministic for a given index.
//
// ReadBundle is the one framing path; it accepts a bundle whole or not
// at all. The Bundle's section decoders then validate against what the
// caller holds. Every failure is an error the caller treats as a miss of
// the whole bundle: rebuild from the app and overwrite the file, never
// fail the analysis.

// CodecVersion is the on-disk format version. Bump it whenever the
// payload layout, the token families or the content sums change; a file
// of any other version is a silent miss, rebuilt and overwritten like a
// stale one. Version 4 replaced the FNV-64a dump hash and span
// fingerprints of version 3 with the CRC content sum. Version 5 dropped
// the two postings maps no search command reads (invoke by name and
// descriptor, new-instance) and the fixed-value layout fields of the
// header and the manifest.
const CodecVersion = 5

const (
	codecMagic = "BDIX"

	// The header ends with the index section's frame: a payload's IEEE
	// CRC-32 and its length, both u32.
	codecHeaderSize = 26
	frameSize       = 8
)

// CacheFileExt is the filename extension of persistent cache bundles.
const CacheFileExt = ".bdx"

// castagnoliTable selects the hardware CRC-32C path of hash/crc32.
var castagnoliTable = crc32.MakeTable(crc32.Castagnoli)

// contentSum is the 64-bit content sum of the bundle: the CRC-32 (IEEE)
// of the bytes in the high half, their CRC-32C (Castagnoli) in the low
// half. Both run on CPU instructions where the host has them (SSE4.2 and
// PCLMULQDQ on amd64, the CRC extension on arm64), at memory speed rather
// than the byte-serial rate of FNV. Sums over consecutive writes equal
// the sum over their concatenation.
type contentSum struct{ ieee, castagnoli uint32 }

func (s *contentSum) write(b []byte) {
	s.ieee = crc32.Update(s.ieee, crc32.IEEETable, b)
	s.castagnoli = crc32.Update(s.castagnoli, castagnoliTable, b)
}

func (s *contentSum) sum64() uint64 { return uint64(s.ieee)<<32 | uint64(s.castagnoli) }

// bytesOf returns a read-only view of s's bytes, without a copy. A
// []byte(s) conversion handed to hash/crc32 escapes, so it would copy
// the whole dump text before summing it.
func bytesOf(s string) []byte { return unsafe.Slice(unsafe.StringData(s), len(s)) }

// DumpHash returns the content sum of the dump text (see contentSum) —
// the staleness check of the persistent cache. A Text is immutable, so
// the sum is computed once and memoized: a bundle-store hit validates the
// same text in (*Bundle).Dump and again in (*Bundle).Index.
func DumpHash(t *Text) uint64 { return t.dumpSum(bytesOf(t.full)) }

// dumpSum memoizes the content sum of t's text. full must hold exactly
// the bytes of t.full; the codec passes the copy it has in hand (the
// encode buffer, the decoded payload) instead of re-reading the string.
func (t *Text) dumpSum(full []byte) uint64 {
	t.hashOnce.Do(func() {
		var s contentSum
		s.write(full)
		t.hash = s.sum64()
	})
	return t.hash
}

// AppFingerprint hashes the encoded dex files of an app (dex.Fingerprint:
// FNV-64a over count, sizes and bytes). It is the staleness check of the
// bundle's dump section: unlike DumpHash it can be computed without
// disassembling, which is what lets a warm engine run validate a cached
// dump before — instead of — rendering one. Encoding is deterministic, so
// the fingerprint is stable across runs and machines. 0 is reserved for
// "unknown" and never matches. Jobs call apk.App.Fingerprint instead,
// which hashes the dex bytes as read once per app and yields the same
// value.
func AppFingerprint(dexes []*dex.File) uint64 {
	encoded := make([][]byte, len(dexes))
	for i, d := range dexes {
		encoded[i] = dex.Encode(d)
	}
	return dex.Fingerprint(encoded)
}

// EncodeBundle serializes the dump text, its index and its manifest into
// the bundle format. fingerprint identifies the app the dump was rendered
// from (see AppFingerprint); 0 marks it unknown, in which case the dump
// section is written but will never validate on probe. m is the dump's
// manifest when the caller already built one; nil builds it here.
func EncodeBundle(t *Text, x *Index, fingerprint uint64, m *Manifest) ([]byte, error) {
	if m == nil {
		m = BuildManifest(t)
	}
	indexPayload := appendIndex(nil, x)
	dumpPayload := appendDump(nil, t)
	manifestPayload := appendManifest(nil, m)
	dumpSum := t.dumpSum(dumpText(dumpPayload))

	buf := make([]byte, codecHeaderSize-frameSize, codecHeaderSize+len(indexPayload)+
		8+2*frameSize+len(dumpPayload)+len(manifestPayload))
	copy(buf[0:4], codecMagic)
	binary.LittleEndian.PutUint16(buf[4:6], CodecVersion)
	binary.LittleEndian.PutUint64(buf[6:14], dumpSum)
	binary.LittleEndian.PutUint32(buf[14:18], uint32(t.LineCount()))
	buf = appendSection(buf, indexPayload)
	buf = binary.LittleEndian.AppendUint64(buf, fingerprint)
	buf = appendSection(buf, dumpPayload)
	return appendSection(buf, manifestPayload), nil
}

// appendSection frames one section: its frame, then the payload.
func appendSection(buf, payload []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	return append(buf, payload...)
}

// Bundle is a bundle ReadBundle accepted. Its sections decode on demand,
// each validated against what the caller holds.
type Bundle struct {
	data                  []byte
	dumpSum, fingerprint  uint64
	lines                 int
	index, dump, manifest []byte // section payloads
}

// ReadBundle checks magic and version, frames all three sections
// to the exact length of data and checks their CRCs.
//
// Ownership of data passes to the returned Bundle and to every Text
// decoded from it: a Text's full text aliases data instead of copying it
// (a warm job reads the dump text where the bundle holds it), so the
// caller must never write to data again. Bundle bytes are immutable
// wherever they come from — a bundle store entry, which is content
// addressed and shared read-only, or a buffer the caller read from a file
// and keeps no other use for. Only the text is aliased: every other
// decoded string (method table, span names, postings keys, manifest
// class names) is a copy, so a report that keeps one of them does not
// keep the whole bundle alive.
func ReadBundle(data []byte) (*Bundle, error) {
	if len(data) < codecHeaderSize {
		return nil, fmt.Errorf("dexdump: bundle truncated: %d bytes", len(data))
	}
	if v := binary.LittleEndian.Uint16(data[4:6]); string(data[0:4]) != codecMagic || v != CodecVersion {
		return nil, fmt.Errorf("dexdump: bundle %q version %d, want %q version %d",
			data[0:4], v, codecMagic, CodecVersion)
	}
	b := &Bundle{
		data:    data,
		dumpSum: binary.LittleEndian.Uint64(data[6:14]),
		lines:   int(binary.LittleEndian.Uint32(data[14:18])),
	}
	// The index section's frame is the tail of the header; the dump
	// section's is preceded by the app fingerprint.
	rest := data[codecHeaderSize-frameSize:]
	var err error
	if b.index, rest, err = cutSection(rest, "index"); err != nil {
		return nil, err
	}
	if len(rest) < 8 {
		return nil, fmt.Errorf("dexdump: bundle has no room for a dump section")
	}
	b.fingerprint = binary.LittleEndian.Uint64(rest[0:8])
	if b.dump, rest, err = cutSection(rest[8:], "dump"); err != nil {
		return nil, err
	}
	if b.manifest, rest, err = cutSection(rest, "manifest"); err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("dexdump: bundle has %d trailing bytes", len(rest))
	}
	return b, nil
}

// cutSection cuts one framed section off the front of rest and checks
// the payload's CRC.
func cutSection(rest []byte, name string) (payload, tail []byte, err error) {
	if len(rest) < frameSize {
		return nil, nil, fmt.Errorf("dexdump: bundle has no room for a %s section", name)
	}
	crc := binary.LittleEndian.Uint32(rest[0:4])
	n := binary.LittleEndian.Uint32(rest[4:8])
	rest = rest[frameSize:]
	if uint64(n) > uint64(len(rest)) {
		return nil, nil, fmt.Errorf("dexdump: %s section claims %d bytes, %d remain", name, n, len(rest))
	}
	if crc32.ChecksumIEEE(rest[:n]) != crc {
		return nil, nil, fmt.Errorf("dexdump: %s payload CRC mismatch", name)
	}
	return rest[:n], rest[n:], nil
}

// Bytes returns the encoded bundle ReadBundle accepted.
func (b *Bundle) Bytes() []byte { return b.data }

// Dump decodes the dump section, reconstructing the dexdump.Text without
// any disassembly and without copying its text. There is no dump to
// validate it against — that is its entire point — so the stored
// fingerprint must equal the caller's (computed from the app's dex
// files), and the decoded text must hash back to the header's dump sum
// and line count.
func (b *Bundle) Dump(fingerprint uint64) (*Text, error) {
	if fingerprint == 0 || b.fingerprint != fingerprint {
		return nil, fmt.Errorf("dexdump: dump section stale: app fingerprint %#x, bundle has %#x", fingerprint, b.fingerprint)
	}
	t, err := decodeDump(b.dump)
	if err != nil {
		return nil, fmt.Errorf("dexdump: dump section: %w", err)
	}
	if b.dumpSum != t.dumpSum(dumpText(b.dump)) || b.lines != t.LineCount() {
		return nil, fmt.Errorf("dexdump: decoded dump does not hash back to the header")
	}
	return t, nil
}

// Index decodes the index section and validates it against the dump
// text it will serve.
func (b *Bundle) Index(t *Text) (*Index, error) {
	if b.dumpSum != DumpHash(t) || b.lines != t.LineCount() {
		return nil, fmt.Errorf("dexdump: bundle stale: header does not match the dump")
	}
	x, rest, err := decodeIndex(b.index, b.lines)
	if err != nil {
		return nil, fmt.Errorf("dexdump: index section: %w", err)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("dexdump: index section has %d trailing bytes", len(rest))
	}
	return x, nil
}

// Manifest decodes the manifest section. A manifest that decodes covers
// exactly the header's dump line count.
func (b *Bundle) Manifest() (*Manifest, error) {
	m, err := decodeManifestPayload(b.manifest)
	if err != nil {
		return nil, fmt.Errorf("dexdump: manifest section: %w", err)
	}
	if m.TotalLines() != b.lines {
		return nil, fmt.Errorf("dexdump: manifest covers %d lines, header says %d", m.TotalLines(), b.lines)
	}
	return m, nil
}

// DecodeIndexFile reads a bundle whole and decodes its index section
// against the dump text.
func DecodeIndexFile(data []byte, t *Text) (*Index, error) {
	b, err := ReadBundle(data)
	if err != nil {
		return nil, err
	}
	return b.Index(t)
}

// DecodeBundleDump reads a bundle whole and decodes its dump section for
// the app with the given fingerprint.
func DecodeBundleDump(data []byte, fingerprint uint64) (*Text, error) {
	b, err := ReadBundle(data)
	if err != nil {
		return nil, err
	}
	return b.Dump(fingerprint)
}

// CachePath returns the bundle path for an app inside dir.
func CachePath(dir, appName string) string {
	return filepath.Join(dir, appName+CacheFileExt)
}

// WriteBundleBytes atomically persists encoded bundle bytes (temp file +
// rename), creating the directory if needed. The temp file never outlives
// a failed write or rename.
func WriteBundleBytes(path string, data []byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".bdx-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// appendManifest serializes a Manifest: the entry count, then per entry
// name, fingerprint and line count.
func appendManifest(buf []byte, m *Manifest) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(m.Entries)))
	var fp [8]byte
	for _, e := range m.Entries {
		buf = appendString(buf, e.Name)
		binary.LittleEndian.PutUint64(fp[:], e.Fingerprint)
		buf = append(buf, fp[:]...)
		buf = binary.AppendUvarint(buf, uint64(e.Lines))
	}
	return buf
}

// minManifestEntry is the size of the smallest encoded manifest entry:
// a one-byte name length, the 8-byte fingerprint and a one-byte line
// count.
const minManifestEntry = 10

// decodeManifestPayload reconstructs a Manifest, bounds-checking every
// count so a corrupt payload decodes as an error, never a panic, and
// never sizes the entry slice beyond what the payload can hold.
func decodeManifestPayload(buf []byte) (*Manifest, error) {
	count, buf, err := readUvarint(buf)
	if err != nil {
		return nil, err
	}
	if count > uint64(len(buf)/minManifestEntry) {
		return nil, fmt.Errorf("manifest claims %d entries, %d bytes remain", count, len(buf))
	}
	m := &Manifest{Entries: make([]ManifestEntry, count)}
	for i := range m.Entries {
		var e ManifestEntry
		if e.Name, buf, err = readString(buf); err != nil {
			return nil, err
		}
		if len(buf) < 8 {
			return nil, fmt.Errorf("manifest entry %d truncated", i)
		}
		e.Fingerprint = binary.LittleEndian.Uint64(buf[:8])
		buf = buf[8:]
		var lines uint64
		if lines, buf, err = readUvarint(buf); err != nil {
			return nil, err
		}
		if lines > 1<<32 {
			return nil, fmt.Errorf("manifest entry %d claims %d lines", i, lines)
		}
		e.Lines = int(lines)
		m.Entries[i] = e
	}
	if len(buf) != 0 {
		return nil, fmt.Errorf("%d trailing bytes after the manifest payload", len(buf))
	}
	return m, nil
}

// appendDump serializes a Text: the full rendered dump (lines are
// recovered by splitting on '\n'), the method table, the per-line method
// attribution and the class spans.
func appendDump(buf []byte, t *Text) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(t.full)))
	buf = append(buf, t.full...)

	buf = binary.AppendUvarint(buf, uint64(len(t.methods)))
	for _, m := range t.methods {
		buf = appendString(buf, m.Class)
		buf = appendString(buf, m.Name)
		buf = appendString(buf, string(m.Ret))
		buf = binary.AppendUvarint(buf, uint64(len(m.Params)))
		for _, p := range m.Params {
			buf = appendString(buf, string(p))
		}
	}

	// methodOfLine: index+1 per line, 0 meaning "no method".
	for _, idx := range t.methodOfLine {
		buf = binary.AppendUvarint(buf, uint64(idx+1))
	}

	// Class spans tile [0, LineCount()), so lengths suffice.
	buf = binary.AppendUvarint(buf, uint64(len(t.spans)))
	for _, sp := range t.spans {
		buf = appendString(buf, sp.Name)
		buf = binary.AppendUvarint(buf, uint64(sp.End-sp.Start))
	}
	return buf
}

// dumpText returns the full-text bytes of a dump payload that appendDump
// wrote or decodeDump accepted: the bytes after the length varint.
func dumpText(payload []byte) []byte {
	n, k := binary.Uvarint(payload)
	return payload[k : k+int(n)]
}

// decodeDump reconstructs a Text from its serialized form, bounds-checking
// every count so a corrupt payload decodes as an error, never a panic.
// The Text's full text is a view of buf, not a copy (see ReadBundle for
// the ownership contract), and its line table comes from one walk over
// the newlines.
func decodeDump(buf []byte) (*Text, error) {
	fullLen, buf, err := readUvarint(buf)
	if err != nil {
		return nil, err
	}
	if fullLen > uint64(len(buf)) || fullLen > math.MaxInt32 {
		return nil, fmt.Errorf("full text claims %d bytes, %d remain", fullLen, len(buf))
	}
	t := &Text{full: aliasString(buf[:fullLen])}
	buf = buf[fullLen:]
	if t.full != "" {
		if t.full[len(t.full)-1] != '\n' {
			return nil, fmt.Errorf("full text does not end in a newline")
		}
		t.ends = lineEnds(t.full)
	}
	lines := len(t.ends)

	methodCount, buf, err := readUvarint(buf)
	if err != nil {
		return nil, err
	}
	if methodCount > uint64(len(buf)) {
		return nil, fmt.Errorf("method table claims %d entries, %d bytes remain", methodCount, len(buf))
	}
	t.methods = make([]dex.MethodRef, methodCount)
	var params []dex.TypeDesc // the free tail of the current Params chunk
	for i := range t.methods {
		var m dex.MethodRef
		var ret string
		var class []byte
		if class, buf, err = readBytes(buf); err != nil {
			return nil, err
		}
		// A class's methods are consecutive: they share one copy of its
		// name.
		if i > 0 && t.methods[i-1].Class == string(class) {
			m.Class = t.methods[i-1].Class
		} else {
			m.Class = string(class)
		}
		if m.Name, buf, err = readString(buf); err != nil {
			return nil, err
		}
		if ret, buf, err = readString(buf); err != nil {
			return nil, err
		}
		m.Ret = dex.TypeDesc(ret)
		var np uint64
		if np, buf, err = readUvarint(buf); err != nil {
			return nil, err
		}
		if np > uint64(len(buf)) {
			return nil, fmt.Errorf("method %d claims %d params", i, np)
		}
		// Params slices are cut from shared chunks of paramChunk
		// entries, with a full slice expression so an append copies; a
		// list that does not fit a chunk gets an array of its own.
		switch n := int(np); {
		case n == 0 || n >= paramChunk:
			m.Params = make([]dex.TypeDesc, n)
		default:
			if n > len(params) {
				params = make([]dex.TypeDesc, paramChunk)
			}
			m.Params, params = params[:n:n], params[n:]
		}
		for j := range m.Params {
			var p string
			if p, buf, err = readString(buf); err != nil {
				return nil, err
			}
			m.Params[j] = dex.TypeDesc(p)
		}
		t.methods[i] = m
	}

	t.methodOfLine = make([]int32, lines)
	for i := range t.methodOfLine {
		var v uint64
		if v, buf, err = readUvarint(buf); err != nil {
			return nil, err
		}
		if v > uint64(len(t.methods)) {
			return nil, fmt.Errorf("line %d attributed to method %d of %d", i, v, len(t.methods))
		}
		t.methodOfLine[i] = int32(v) - 1
	}

	spanCount, buf, err := readUvarint(buf)
	if err != nil {
		return nil, err
	}
	if spanCount > uint64(lines)+1 {
		return nil, fmt.Errorf("%d class spans for a %d-line dump", spanCount, lines)
	}
	t.spans = make([]ClassSpan, spanCount)
	at := 0
	for i := range t.spans {
		var name string
		if name, buf, err = readString(buf); err != nil {
			return nil, err
		}
		var length uint64
		if length, buf, err = readUvarint(buf); err != nil {
			return nil, err
		}
		if length > uint64(lines-at) {
			return nil, fmt.Errorf("class span %d overruns the dump", i)
		}
		t.spans[i] = ClassSpan{Name: name, Start: at, End: at + int(length)}
		at += int(length)
	}
	if at != lines {
		return nil, fmt.Errorf("class spans cover %d of %d lines", at, lines)
	}
	if len(buf) != 0 {
		return nil, fmt.Errorf("%d trailing bytes after the dump payload", len(buf))
	}
	return t, nil
}

// paramChunk bounds the Params entries decodeDump allocates at once, to
// 512 bytes as the dex decode bounds its operand chunks: a report that
// keeps one method ref alive pins at most that many parameter types.
const paramChunk = 512 / int(unsafe.Sizeof(dex.TypeDesc("")))

// lineEnds returns the offset of every newline in full, which ends in
// one: the end of each line, its newline excluded.
func lineEnds(full string) []int32 {
	ends := make([]int32, 0, strings.Count(full, "\n"))
	for at := 0; at < len(full); {
		at += strings.IndexByte(full[at:], '\n')
		ends = append(ends, int32(at))
		at++
	}
	return ends
}

// aliasString returns a string view of b, without a copy. b must never
// be written again.
func aliasString(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// readString reads a string appendString wrote, as a copy: decoded
// strings outlive the bundle in reports (method refs, class names), so
// they must not pin its bytes.
func readString(buf []byte) (string, []byte, error) {
	b, buf, err := readBytes(buf)
	return string(b), buf, err
}

// readBytes is readString without the copy: the bytes alias buf.
func readBytes(buf []byte) ([]byte, []byte, error) {
	n, buf, err := readUvarint(buf)
	if err != nil {
		return nil, nil, err
	}
	if n > uint64(len(buf)) {
		return nil, nil, fmt.Errorf("truncated string")
	}
	return buf[:n], buf[n:], nil
}

// appendIndex encodes an index: the lines/postings counters, all seven
// postings maps (sorted keys, delta-varint lists) and the four side lists.
func appendIndex(buf []byte, x *Index) []byte {
	buf = binary.AppendUvarint(buf, uint64(x.lines))
	buf = binary.AppendUvarint(buf, uint64(x.postings))
	for _, m := range x.maps() {
		buf = appendMap(buf, *m)
	}
	for _, l := range x.sideLists() {
		buf = appendPostings(buf, *l)
	}
	return buf
}

// maps returns the postings maps in fixed codec order.
func (x *Index) maps() []*map[string][]int32 {
	return []*map[string][]int32{
		&x.invokeBySig, &x.invokeByNameP, &x.ctorByPrefix, &x.constClass,
		&x.constString, &x.fieldBySig, &x.classUse,
	}
}

// sideLists returns the side lists in fixed codec order.
func (x *Index) sideLists() []*[]int32 {
	return []*[]int32{&x.oddStrings, &x.oddFields, &x.oddCtors, &x.oddInvokes}
}

func appendMap(buf []byte, m map[string][]int32) []byte {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	buf = binary.AppendUvarint(buf, uint64(len(keys)))
	for _, k := range keys {
		buf = appendString(buf, k)
		buf = appendPostings(buf, m[k])
	}
	return buf
}

// appendPostings delta-encodes an ascending postings list.
func appendPostings(buf []byte, p []int32) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(p)))
	prev := int32(0)
	for _, n := range p {
		buf = binary.AppendUvarint(buf, uint64(n-prev))
		prev = n
	}
	return buf
}

func decodeIndex(buf []byte, maxLines int) (*Index, []byte, error) {
	x := &Index{}
	lines, buf, err := readUvarint(buf)
	if err != nil {
		return nil, nil, err
	}
	postings, buf, err := readUvarint(buf)
	if err != nil {
		return nil, nil, err
	}
	if lines > uint64(maxLines) {
		return nil, nil, fmt.Errorf("index claims %d lines, dump has %d", lines, maxLines)
	}
	x.lines = int(lines)
	x.postings = int(postings)
	// Every list is cut from one backing array sized by the header's
	// postings total. Each posting takes at least one byte, so the
	// remaining bytes bound it; a header that undercounts only sends the
	// lists past the end to their own arrays.
	arena := make([]int32, 0, min(postings, uint64(len(buf))))
	for _, m := range x.maps() {
		*m, buf, err = decodeMap(buf, maxLines, &arena)
		if err != nil {
			return nil, nil, err
		}
	}
	for _, l := range x.sideLists() {
		*l, buf, err = decodePostings(buf, maxLines, &arena)
		if err != nil {
			return nil, nil, err
		}
	}
	return x, buf, nil
}

// decodeMap rebuilds one postings map. Every entry takes at least two
// bytes (a key-length varint and a postings-count varint), so a count
// beyond half the remaining bytes is rejected before it sizes the map.
func decodeMap(buf []byte, maxLines int, arena *[]int32) (map[string][]int32, []byte, error) {
	count, buf, err := readUvarint(buf)
	if err != nil {
		return nil, nil, err
	}
	if count > uint64(len(buf)/2) {
		return nil, nil, fmt.Errorf("map claims %d keys, %d bytes remain", count, len(buf))
	}
	m := make(map[string][]int32, count)
	for i := uint64(0); i < count; i++ {
		var key string
		if key, buf, err = readString(buf); err != nil {
			return nil, nil, err
		}
		var p []int32
		p, buf, err = decodePostings(buf, maxLines, arena)
		if err != nil {
			return nil, nil, err
		}
		m[key] = p
	}
	return m, buf, nil
}

// decodePostings rebuilds a delta-encoded postings list, rejecting any
// line outside [0, maxLines) and any non-ascending sequence: a lookup
// hands these lines straight to the dump text, so a CRC-colliding or
// hand-crafted file must decode as a miss, never panic later. The list is
// cut from the free capacity of *arena when it fits there, with a full
// slice expression so that appending to it cannot reach the next list;
// an arena too small for it gives it an array of its own. The index
// that owns the arena is job-local, so no report pins it.
func decodePostings(buf []byte, maxLines int, arena *[]int32) ([]int32, []byte, error) {
	count, buf, err := readUvarint(buf)
	if err != nil {
		return nil, nil, err
	}
	if count == 0 {
		return nil, buf, nil
	}
	if count > uint64(maxLines) {
		return nil, nil, fmt.Errorf("%d postings for a %d-line dump", count, maxLines)
	}
	var p []int32
	if a := *arena; uint64(cap(a)-len(a)) >= count {
		n := len(a)
		p = a[n : n : n+int(count)]
		*arena = a[:n+int(count)]
	} else {
		p = make([]int32, 0, count)
	}
	prev := int64(-1)
	for i := uint64(0); i < count; i++ {
		var d uint64
		d, buf, err = readUvarint(buf)
		if err != nil {
			return nil, nil, err
		}
		if d > uint64(maxLines) {
			return nil, nil, fmt.Errorf("posting delta %d out of range", d)
		}
		if i == 0 {
			prev = int64(d)
		} else {
			if d == 0 {
				return nil, nil, fmt.Errorf("postings not strictly ascending")
			}
			prev += int64(d)
		}
		if prev >= int64(maxLines) {
			return nil, nil, fmt.Errorf("posting line %d out of range (dump has %d lines)", prev, maxLines)
		}
		p = append(p, int32(prev))
	}
	return p, buf, nil
}

// readUvarint reads one varint, accepting only the minimal encoding
// binary.AppendUvarint writes (a multi-byte varint never ends in a zero
// byte), so every payload that decodes re-encodes to the same bytes.
func readUvarint(buf []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(buf)
	if n <= 0 {
		return 0, nil, fmt.Errorf("truncated varint")
	}
	if n > 1 && buf[n-1] == 0 {
		return 0, nil, fmt.Errorf("non-minimal varint")
	}
	return v, buf[n:], nil
}
