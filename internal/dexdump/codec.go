package dexdump

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"
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
//	26      ...   index payload: the postings directory
//	...     8     app fingerprint (FNV-64a over the encoded dex files)
//	...     4     IEEE CRC-32 of the dump payload
//	...     4     dump payload length
//	...     ...   dump payload: the serialized dexdump.Text
//	...     4     IEEE CRC-32 of the manifest payload
//	...     4     manifest payload length
//	...     ...   manifest payload: the serialized Manifest
//
// Every count and length is a uvarint unless marked u32 (little endian).
// The index payload is laid out for lookup, not for a rebuild of the
// postings maps:
//
//	lines, postings   the Index's counters
//	4 side lists      each a postings list
//	7 token counts    one per postings family, in family order
//	u32 per token     end offset of its key in the key blob
//	u32 per token     end offset of its list in the list blob
//	key blob          the keys, by family and ascending within one
//	list blob         the postings lists, in token order
//
// A postings list is its count, then each line less the one before it
// (the first less zero). A lookup binary-searches its family's keys and
// decodes one list. The dump payload is laid out so that decoding it
// walks neither the text nor one entry per line:
//
//	text              length, then the rendered dump
//	line table        line count, then each line's length, its
//	                  newline left out
//	string section    length, then every method's class, name, return
//	                  and parameter types and every span name, back to back
//	method table      method count, parameter count, then per method the
//	                  lengths of its strings and its line run: the gap
//	                  since the previous run's end and its length
//	class spans       span count, then per span its name's length and
//	                  its line count
//
// Every file a given dump and index encode to is the same, byte for byte.
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
// header and the manifest. Version 6 laid both big sections out for
// lookup: a postings directory in place of the key-by-key maps, and a
// stored line table, method line runs and one string section in place of
// the per-line method varints and the per-string copies.
const CodecVersion = 6

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
	// Each section's payload is appended straight into the bundle
	// buffer, sized exactly (a store keeps the buffer whole), and its
	// frame filled in afterwards.
	buf := make([]byte, codecHeaderSize-frameSize,
		codecHeaderSize+8+2*frameSize+indexSize(x)+dumpSize(t)+manifestSize(m))
	copy(buf[0:4], codecMagic)
	binary.LittleEndian.PutUint16(buf[4:6], CodecVersion)
	binary.LittleEndian.PutUint32(buf[14:18], uint32(t.LineCount()))
	buf, start := openSection(buf)
	buf, err := appendIndex(buf, x)
	if err != nil {
		return nil, err
	}
	closeSection(buf, start)
	buf = binary.LittleEndian.AppendUint64(buf, fingerprint)
	buf, start = openSection(buf)
	buf = appendDump(buf, t)
	closeSection(buf, start)
	binary.LittleEndian.PutUint64(buf[6:14], t.dumpSum(dumpText(buf[start+frameSize:])))
	buf, start = openSection(buf)
	buf = appendManifest(buf, m)
	closeSection(buf, start)
	return buf, nil
}

// openSection appends a blank frame for the section whose payload is
// appended next, returning the frame's offset for closeSection.
func openSection(buf []byte) ([]byte, int) {
	return append(buf, make([]byte, frameSize)...), len(buf)
}

// closeSection fills in the frame at start for the payload that follows
// it to the end of buf: the payload's CRC, then its length.
func closeSection(buf []byte, start int) {
	payload := buf[start+frameSize:]
	binary.LittleEndian.PutUint32(buf[start:], crc32.ChecksumIEEE(payload))
	binary.LittleEndian.PutUint32(buf[start+4:], uint32(len(payload)))
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
// and keeps no other use for. Of the decoded strings only the text is
// aliased: method-table strings and span names are slices of one copy
// of the dump's string section, and manifest class names are copies, so
// a report that keeps one of them pins that copy, never the bundle. An
// Index from (*Bundle).Index reads its postings where the bundle holds
// them too, but it is job-local and its lookups return fresh slices.
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

// Index checks the index section whole against the dump text it will
// serve and returns an Index that answers each lookup from the section.
func (b *Bundle) Index(t *Text) (*Index, error) {
	if b.dumpSum != DumpHash(t) || b.lines != t.LineCount() {
		return nil, fmt.Errorf("dexdump: bundle stale: header does not match the dump")
	}
	x, err := decodeIndex(b.index, b.lines)
	if err != nil {
		return nil, fmt.Errorf("dexdump: index section: %w", err)
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

// manifestSize returns the bytes appendManifest writes for m.
func manifestSize(m *Manifest) int {
	n := uvarintSize(uint64(len(m.Entries)))
	for _, e := range m.Entries {
		n += stringSize(e.Name) + 8 + uvarintSize(uint64(e.Lines))
	}
	return n
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

// appendDump serializes a Text: the text, its line-end table, the string
// section and the tables that slice it (see the layout above).
func appendDump(buf []byte, t *Text) []byte {
	buf = appendString(buf, t.full)
	buf = binary.AppendUvarint(buf, uint64(len(t.ends)))
	start := int32(0)
	for _, e := range t.ends {
		buf = binary.AppendUvarint(buf, uint64(e-start))
		start = e + 1
	}

	size, params := 0, 0
	for s := range t.dumpStrings {
		size += len(s)
	}
	buf = binary.AppendUvarint(buf, uint64(size))
	for s := range t.dumpStrings {
		buf = append(buf, s...)
	}

	for _, m := range t.methods {
		params += len(m.Params)
	}
	buf = binary.AppendUvarint(buf, uint64(len(t.methods)))
	buf = binary.AppendUvarint(buf, uint64(params))
	end := int32(0)
	for i, m := range t.methods {
		buf = binary.AppendUvarint(buf, uint64(len(m.Class)))
		buf = binary.AppendUvarint(buf, uint64(len(m.Name)))
		buf = binary.AppendUvarint(buf, uint64(len(m.Ret)))
		buf = binary.AppendUvarint(buf, uint64(len(m.Params)))
		for _, p := range m.Params {
			buf = binary.AppendUvarint(buf, uint64(len(p)))
		}
		r := t.runs[i]
		buf = binary.AppendUvarint(buf, uint64(r.start-end))
		buf = binary.AppendUvarint(buf, uint64(r.end-r.start))
		end = r.end
	}

	// Class spans tile [0, LineCount()), so lengths suffice.
	buf = binary.AppendUvarint(buf, uint64(len(t.spans)))
	for _, sp := range t.spans {
		buf = binary.AppendUvarint(buf, uint64(len(sp.Name)))
		buf = binary.AppendUvarint(buf, uint64(sp.End-sp.Start))
	}
	return buf
}

// dumpSize returns the bytes appendDump writes for t.
func dumpSize(t *Text) int {
	n := stringSize(t.full) + uvarintSize(uint64(len(t.ends)))
	start := int32(0)
	for _, e := range t.ends {
		n += uvarintSize(uint64(e - start))
		start = e + 1
	}
	size, params := 0, 0
	for s := range t.dumpStrings {
		size += len(s)
	}
	n += uvarintSize(uint64(size)) + size
	for _, m := range t.methods {
		params += len(m.Params)
	}
	n += uvarintSize(uint64(len(t.methods))) + uvarintSize(uint64(params))
	end := int32(0)
	for i, m := range t.methods {
		n += uvarintSize(uint64(len(m.Class))) + uvarintSize(uint64(len(m.Name))) +
			uvarintSize(uint64(len(m.Ret))) + uvarintSize(uint64(len(m.Params)))
		for _, p := range m.Params {
			n += uvarintSize(uint64(len(p)))
		}
		r := t.runs[i]
		n += uvarintSize(uint64(r.start-end)) + uvarintSize(uint64(r.end-r.start))
		end = r.end
	}
	n += uvarintSize(uint64(len(t.spans)))
	for _, sp := range t.spans {
		n += uvarintSize(uint64(len(sp.Name))) + uvarintSize(uint64(sp.End-sp.Start))
	}
	return n
}

// dumpStrings yields the strings of a dump's string section in section
// order: per method its class, name, return type and parameter types,
// then every class span's name.
func (t *Text) dumpStrings(yield func(string) bool) {
	for _, m := range t.methods {
		if !yield(m.Class) || !yield(m.Name) || !yield(string(m.Ret)) {
			return
		}
		for _, p := range m.Params {
			if !yield(string(p)) {
				return
			}
		}
	}
	for _, sp := range t.spans {
		if !yield(sp.Name) {
			return
		}
	}
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
// the ownership contract); every other string is sliced from one copy of
// the string section. Each table is sized by a count read before it, so
// the decode makes the same few allocations whatever the dump's line and
// method counts.
func decodeDump(buf []byte) (*Text, error) {
	fullLen, buf, err := readUvarint(buf)
	if err != nil {
		return nil, err
	}
	if fullLen > uint64(len(buf)) || fullLen > math.MaxInt32 {
		return nil, fmt.Errorf("full text claims %d bytes, %d remain", fullLen, len(buf))
	}
	t := &Text{full: aliasString(buf[:fullLen])}
	if t.ends, buf, err = readLineEnds(buf[fullLen:], t.full); err != nil {
		return nil, err
	}
	lines := len(t.ends)

	sectionLen, buf, err := readUvarint(buf)
	if err != nil {
		return nil, err
	}
	if sectionLen > uint64(len(buf)) {
		return nil, fmt.Errorf("string section claims %d bytes, %d remain", sectionLen, len(buf))
	}
	strs := stringSection(buf[:sectionLen])
	buf = buf[sectionLen:]

	methodCount, buf, err := readUvarint(buf)
	if err != nil {
		return nil, err
	}
	paramCount, buf, err := readUvarint(buf)
	if err != nil {
		return nil, err
	}
	// A method takes at least six bytes: four lengths and its line run.
	// A parameter takes at least one, its length.
	if methodCount > uint64(len(buf)/6) || paramCount > uint64(len(buf)) {
		return nil, fmt.Errorf("method table claims %d entries and %d params, %d bytes remain", methodCount, paramCount, len(buf))
	}
	t.methods = make([]dex.MethodRef, methodCount)
	t.runs = make([]lineRun, methodCount)
	// Every Params slice is cut from one array, with a full slice
	// expression so an append copies.
	params := make([]dex.TypeDesc, paramCount)
	end := 0
	for i := range t.methods {
		m := &t.methods[i]
		var ret string
		if m.Class, buf, err = strs.next(buf); err != nil {
			return nil, err
		}
		if m.Name, buf, err = strs.next(buf); err != nil {
			return nil, err
		}
		if ret, buf, err = strs.next(buf); err != nil {
			return nil, err
		}
		m.Ret = dex.TypeDesc(ret)
		var np uint64
		if np, buf, err = readUvarint(buf); err != nil {
			return nil, err
		}
		if np > uint64(len(params)) {
			return nil, fmt.Errorf("method %d claims %d params, %d left", i, np, len(params))
		}
		m.Params, params = params[:np:np], params[np:]
		for j := range m.Params {
			var p string
			if p, buf, err = strs.next(buf); err != nil {
				return nil, err
			}
			m.Params[j] = dex.TypeDesc(p)
		}
		var gap, length uint64
		if gap, buf, err = readUvarint(buf); err != nil {
			return nil, err
		}
		if length, buf, err = readUvarint(buf); err != nil {
			return nil, err
		}
		if gap > uint64(lines-end) || length > uint64(lines-end)-gap {
			return nil, fmt.Errorf("method %d's lines overrun the dump", i)
		}
		start := end + int(gap)
		end = start + int(length)
		t.runs[i] = lineRun{int32(start), int32(end)}
	}
	if len(params) != 0 {
		return nil, fmt.Errorf("%d of the claimed params belong to no method", len(params))
	}

	spanCount, buf, err := readUvarint(buf)
	if err != nil {
		return nil, err
	}
	if spanCount > uint64(lines)+1 || spanCount > uint64(len(buf)/2) {
		return nil, fmt.Errorf("%d class spans for a %d-line dump", spanCount, lines)
	}
	t.spans = make([]ClassSpan, spanCount)
	at := 0
	for i := range t.spans {
		var name string
		if name, buf, err = strs.next(buf); err != nil {
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
	if len(strs) != 0 {
		return nil, fmt.Errorf("%d bytes of the string section belong to no string", len(strs))
	}
	if len(buf) != 0 {
		return nil, fmt.Errorf("%d trailing bytes after the dump payload", len(buf))
	}
	return t, nil
}

// readLineEnds reads the line table of full into line-end offsets and
// checks it against the text without walking it line by line: a text
// that ends in a newline, as many lines as it holds newlines (one
// strings.Count), and every line, starting just past the previous
// line's newline, ending on a '\n' inside the text. Those checks admit
// exactly one table, the lengths between the text's newlines in order,
// which is what a walk over the text would build.
func readLineEnds(buf []byte, full string) ([]int32, []byte, error) {
	n, buf, err := readUvarint(buf)
	if err != nil {
		return nil, nil, err
	}
	// Every line takes at least one byte, its length.
	if n > uint64(len(buf)) {
		return nil, nil, fmt.Errorf("line table claims %d lines, %d bytes remain", n, len(buf))
	}
	if full != "" && full[len(full)-1] != '\n' {
		return nil, nil, fmt.Errorf("full text does not end in a newline")
	}
	if newlines := strings.Count(full, "\n"); uint64(newlines) != n {
		return nil, nil, fmt.Errorf("line table has %d lines, the text %d", n, newlines)
	}
	ends := make([]int32, n)
	start := 0
	for i := range ends {
		var length uint64
		if length, buf, err = readUvarint(buf); err != nil {
			return nil, nil, err
		}
		if length >= uint64(len(full)-start) || full[start+int(length)] != '\n' {
			return nil, nil, fmt.Errorf("line %d of %d bytes does not end on the next newline", i, length)
		}
		e := start + int(length)
		ends[i], start = int32(e), e+1
	}
	return ends, buf, nil
}

// stringSection is the unread rest of a dump payload's string section:
// one copy of its bytes, so every string sliced from it shares that copy
// and none pins the bundle.
type stringSection string

// next reads one string length from buf and slices that many bytes off
// the front of the section.
func (s *stringSection) next(buf []byte) (string, []byte, error) {
	n, buf, err := readUvarint(buf)
	if err != nil {
		return "", nil, err
	}
	if n > uint64(len(*s)) {
		return "", nil, fmt.Errorf("a %d-byte string overruns the string section", n)
	}
	str := string((*s)[:n])
	*s = (*s)[n:]
	return str, buf, nil
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

// stringSize returns the bytes appendString writes for s.
func stringSize(s string) int { return uvarintSize(uint64(len(s))) + len(s) }

// readString reads a string appendString wrote, as a copy: decoded
// strings outlive the bundle in reports (manifest class names), so they
// must not pin its bytes.
func readString(buf []byte) (string, []byte, error) {
	n, buf, err := readUvarint(buf)
	if err != nil {
		return "", nil, err
	}
	if n > uint64(len(buf)) {
		return "", nil, fmt.Errorf("truncated string")
	}
	return string(buf[:n]), buf[n:], nil
}

// appendIndex encodes an index (see the layout above). A decoded index
// re-encodes as the payload it was decoded from, which decodeIndex only
// accepts in the form this function writes. The directory's offsets are
// u32, so an index whose keys or lists pass 4 GiB fails to encode.
func appendIndex(buf []byte, x *Index) ([]byte, error) {
	if x.dir != nil {
		return append(buf, x.dir.payload...), nil
	}
	buf = binary.AppendUvarint(buf, uint64(x.lines))
	buf = binary.AppendUvarint(buf, uint64(x.postings))
	for _, l := range x.sideLists() {
		buf = appendPostings(buf, *l)
	}
	var keys [families][]string
	for f, m := range x.maps {
		keys[f] = make([]string, 0, len(m))
		for k := range m {
			keys[f] = append(keys[f], k)
		}
		sort.Strings(keys[f])
		buf = binary.AppendUvarint(buf, uint64(len(keys[f])))
	}
	keyEnd, listEnd := 0, 0
	for _, ks := range keys {
		for _, k := range ks {
			if keyEnd += len(k); keyEnd > math.MaxUint32 {
				return nil, fmt.Errorf("dexdump: index keys pass 4 GiB")
			}
			buf = binary.LittleEndian.AppendUint32(buf, uint32(keyEnd))
		}
	}
	for f, ks := range keys {
		for _, k := range ks {
			if listEnd += postingsSize(x.maps[f][k]); listEnd > math.MaxUint32 {
				return nil, fmt.Errorf("dexdump: index postings pass 4 GiB")
			}
			buf = binary.LittleEndian.AppendUint32(buf, uint32(listEnd))
		}
	}
	for _, ks := range keys {
		for _, k := range ks {
			buf = append(buf, k...)
		}
	}
	for f, ks := range keys {
		for _, k := range ks {
			buf = appendPostings(buf, x.maps[f][k])
		}
	}
	return buf, nil
}

// indexSize returns the bytes appendIndex writes for x, when it writes
// them.
func indexSize(x *Index) int {
	if x.dir != nil {
		return len(x.dir.payload)
	}
	n := uvarintSize(uint64(x.lines)) + uvarintSize(uint64(x.postings))
	for _, l := range x.sideLists() {
		n += postingsSize(*l)
	}
	for _, m := range x.maps {
		n += uvarintSize(uint64(len(m))) + 8*len(m)
		for k, p := range m {
			n += len(k) + postingsSize(p)
		}
	}
	return n
}

// sideLists returns the side lists in fixed codec order.
func (x *Index) sideLists() []*[]int32 {
	return []*[]int32{&x.oddStrings, &x.oddFields, &x.oddCtors, &x.oddInvokes}
}

// appendPostings delta-encodes an ascending postings list: its count,
// then each line less the one before it (the first less zero).
func appendPostings(buf []byte, p []int32) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(p)))
	prev := int32(0)
	for _, n := range p {
		buf = binary.AppendUvarint(buf, uint64(n-prev))
		prev = n
	}
	return buf
}

// postingsSize returns the encoded size of a postings list, the bytes
// appendPostings writes for it.
func postingsSize(p []int32) int {
	n := uvarintSize(uint64(len(p)))
	prev := int32(0)
	for _, line := range p {
		n += uvarintSize(uint64(line - prev))
		prev = line
	}
	return n
}

// uvarintSize returns the bytes binary.AppendUvarint writes for v.
func uvarintSize(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// postingsDir is the postings directory of a decoded index section. It
// is a view of the bundle bytes, checked whole by decodeIndex, and
// serves each lookup with one binary search and one list decode. The
// Index that holds it is job-local and its lookups return fresh slices,
// so no report pins the bundle through it.
type postingsDir struct {
	payload  []byte            // the whole index section
	first    [families + 1]int // the tokens of family f are [first[f], first[f+1])
	keyEnds  []byte            // per token, the u32 end of its key in keys
	listEnds []byte            // per token, the u32 end of its list in lists
	keys     string            // the key blob
	lists    []byte            // the list blob
}

// offset returns entry j of a u32 offset table; entry -1 is 0.
func offset(ends []byte, j int) int {
	if j < 0 {
		return 0
	}
	return int(binary.LittleEndian.Uint32(ends[4*j:]))
}

func (d *postingsDir) key(j int) string {
	return d.keys[offset(d.keyEnds, j-1):offset(d.keyEnds, j)]
}

// lookup returns the postings of one token, nil when the family has no
// such token.
func (d *postingsDir) lookup(f family, key string) []int32 {
	lo, hi := d.first[f], d.first[f+1]
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if d.key(mid) < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == d.first[f+1] || d.key(lo) != key {
		return nil
	}
	list := d.lists[offset(d.listEnds, lo-1):]
	n, k := binary.Uvarint(list)
	out := make([]int32, n)
	fillPostings(list[k:], out)
	return out
}

// fillPostings decodes the lines of a postings list decodeIndex checked,
// from the first delta on, into out, which holds exactly its count of
// entries. It returns the bytes after the list.
func fillPostings(buf []byte, out []int32) []byte {
	line := int32(0)
	for i := range out {
		d, k := binary.Uvarint(buf)
		line += int32(d)
		out[i] = line
		buf = buf[k:]
	}
	return buf
}

// decodeIndex checks a whole index section and returns the Index that
// serves it. Every count is bounds-checked before anything is sized by
// it, and the check allocates nothing: keys are compared as views of
// the payload, and each postings list is walked, not decoded. Only the
// four side lists, which most lookups merge in, are decoded here, into
// one array. The section is accepted only in the exact form appendIndex
// writes: keys strictly ascending within each family, every token with
// a non-empty list, each list ending at its offset, and the header's
// postings total equal to the lists'.
func decodeIndex(payload []byte, maxLines int) (*Index, error) {
	lines, buf, err := readUvarint(payload)
	if err != nil {
		return nil, err
	}
	postings, buf, err := readUvarint(buf)
	if err != nil {
		return nil, err
	}
	if lines > uint64(maxLines) {
		return nil, fmt.Errorf("index claims %d lines, dump has %d", lines, maxLines)
	}
	x := &Index{lines: int(lines), postings: int(postings)}

	sides := buf
	var sideTotal uint64
	for range x.sideLists() {
		var n uint64
		if n, buf, err = checkPostings(buf, maxLines); err != nil {
			return nil, err
		}
		sideTotal += n
	}
	sides = sides[:len(sides)-len(buf)]

	d := &postingsDir{payload: payload}
	tokens := uint64(0)
	for f := range families {
		var n uint64
		if n, buf, err = readUvarint(buf); err != nil {
			return nil, err
		}
		// Every token takes eight bytes of offsets.
		if tokens += n; tokens > uint64(len(buf)/8) {
			return nil, fmt.Errorf("directory claims %d tokens, %d bytes remain", tokens, len(buf))
		}
		d.first[f+1] = d.first[f] + int(n)
	}
	t := int(tokens)
	d.keyEnds, d.listEnds, buf = buf[:4*t], buf[4*t:8*t], buf[8*t:]
	keyLen := offset(d.keyEnds, t-1)
	if keyLen > len(buf) {
		return nil, fmt.Errorf("keys claim %d bytes, %d remain", keyLen, len(buf))
	}
	d.keys, d.lists = aliasString(buf[:keyLen]), buf[keyLen:]

	total := sideTotal
	f := 0
	for j := range t {
		for j == d.first[f+1] {
			f++
		}
		keyStart, listStart := offset(d.keyEnds, j-1), offset(d.listEnds, j-1)
		keyEnd, listEnd := offset(d.keyEnds, j), offset(d.listEnds, j)
		if keyEnd < keyStart || keyEnd > len(d.keys) {
			return nil, fmt.Errorf("token %d: key offsets out of order", j)
		}
		if j > d.first[f] && d.key(j-1) >= d.keys[keyStart:keyEnd] {
			return nil, fmt.Errorf("token %d: keys not strictly ascending", j)
		}
		if listEnd <= listStart || listEnd > len(d.lists) {
			return nil, fmt.Errorf("token %d: list offsets out of order", j)
		}
		n, rest, err := checkPostings(d.lists[listStart:listEnd], maxLines)
		if err != nil {
			return nil, fmt.Errorf("token %d: %w", j, err)
		}
		if n == 0 || len(rest) != 0 {
			return nil, fmt.Errorf("token %d: list of %d postings does not fill its %d bytes", j, n, listEnd-listStart)
		}
		total += n
	}
	if offset(d.listEnds, t-1) != len(d.lists) {
		return nil, fmt.Errorf("%d trailing bytes after the postings lists", len(d.lists)-offset(d.listEnds, t-1))
	}
	if total != postings {
		return nil, fmt.Errorf("index claims %d postings, its lists hold %d", postings, total)
	}
	x.dir = d

	arena := make([]int32, sideTotal)
	for _, l := range x.sideLists() {
		n, k := binary.Uvarint(sides)
		if n > 0 {
			*l, arena = arena[:n:n], arena[n:]
		}
		sides = fillPostings(sides[k:], *l)
	}
	return x, nil
}

// checkPostings walks one delta-encoded postings list without decoding
// it, rejecting any line outside [0, maxLines) and any sequence that is
// not strictly ascending: a lookup hands these lines straight to the
// dump text, so a CRC-colliding or hand-crafted file must decode as a
// miss, never panic later. It returns the list's count and the bytes
// after it.
func checkPostings(buf []byte, maxLines int) (uint64, []byte, error) {
	count, buf, err := readUvarint(buf)
	if err != nil {
		return 0, nil, err
	}
	if count > uint64(maxLines) {
		return 0, nil, fmt.Errorf("%d postings for a %d-line dump", count, maxLines)
	}
	line := uint64(0)
	for i := uint64(0); i < count; i++ {
		var d uint64
		if d, buf, err = readUvarint(buf); err != nil {
			return 0, nil, err
		}
		if i > 0 && d == 0 {
			return 0, nil, fmt.Errorf("postings not strictly ascending")
		}
		if d >= uint64(maxLines) || line+d >= uint64(maxLines) {
			return 0, nil, fmt.Errorf("posting line %d out of range (dump has %d lines)", line+d, maxLines)
		}
		line += d
	}
	return count, buf, nil
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
