package dexdump

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strings"

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
//	6       2     shard count
//	8       8     FNV-64a content hash of the full dump text
//	16      4     dump line count
//	20      4     IEEE CRC-32 of the index payload
//	24      4     index payload length
//	28      ...   index payload: per shard, every postings map and side list
//	...     8     app fingerprint (FNV-64a over the encoded dex files)
//	...     4     IEEE CRC-32 of the dump payload
//	...     4     dump payload length
//	...     ...   dump payload: the serialized dexdump.Text
//	...     4     IEEE CRC-32 of the manifest payload
//	...     4     manifest payload length
//	...     ...   manifest payload: the serialized shard Manifest
//
// Postings maps are encoded with sorted keys and delta-varint line lists,
// so files are deterministic for a given index. Every validation failure —
// wrong magic, unknown version, stale content hash or fingerprint,
// line-count mismatch, CRC mismatch, truncation — is an error the caller
// treats as a cache miss: rebuild from the app and overwrite the file,
// never fail the analysis. A damaged manifest section alone decodes as
// "no manifest" (DecodeManifest reports ok=false), which callers treat as
// "run the full analysis" — the manifest can only ever save work.

// CodecVersion is the on-disk format version. Bump it whenever the
// payload layout or the token families change; a file of any other
// version is a silent miss, rebuilt and overwritten like a stale one.
const CodecVersion = 3

const (
	codecMagic                = "BDIX"
	codecHeaderSize           = 28
	dumpSectionHeaderSize     = 16 // fingerprint u64 + CRC u32 + length u32
	manifestSectionHeaderSize = 8  // CRC u32 + length u32
)

// CacheFileExt is the filename extension of persistent cache bundles.
const CacheFileExt = ".bdx"

// DumpHash returns the FNV-64a content hash of the dump text — the
// staleness check of the persistent cache.
func DumpHash(t *Text) uint64 {
	h := fnv.New64a()
	h.Write([]byte(t.full))
	return h.Sum64()
}

// AppFingerprint hashes the encoded dex files of an app (FNV-64a over
// count, sizes and bytes). It is the staleness check of the bundle's dump
// section: unlike DumpHash it can be computed without disassembling, which
// is what lets a warm engine run validate a cached dump before — instead
// of — rendering one. Encoding is deterministic, so the fingerprint is
// stable across runs and machines. 0 is reserved for "unknown" and never
// matches.
func AppFingerprint(dexes []*dex.File) uint64 {
	h := fnv.New64a()
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(dexes)))
	h.Write(n[:])
	for _, d := range dexes {
		b := dex.Encode(d)
		binary.LittleEndian.PutUint64(n[:], uint64(len(b)))
		h.Write(n[:])
		h.Write(b)
	}
	fp := h.Sum64()
	if fp == 0 {
		fp = 1
	}
	return fp
}

// shardsOf flattens a Source into its shard list.
func shardsOf(src Source) ([]*Index, error) {
	switch s := src.(type) {
	case *Index:
		return []*Index{s}, nil
	case *ShardedIndex:
		return s.shards, nil
	}
	return nil, fmt.Errorf("dexdump: cannot encode index source %T", src)
}

// EncodeBundle serializes the dump text, its index (single or sharded)
// and its shard manifest into the bundle format. fingerprint identifies
// the app the dump was rendered from (see AppFingerprint); 0 marks it
// unknown, in which case the dump section is written but will never
// validate on probe. plan is the shard plan the index was built with and
// determines the manifest's span-to-shard assignment; nil (or a plan for
// a different dump) records a single-shard manifest.
func EncodeBundle(t *Text, src Source, fingerprint uint64, plan *ShardPlan) ([]byte, error) {
	shards, err := shardsOf(src)
	if err != nil {
		return nil, err
	}
	if len(shards) > 0xffff {
		return nil, fmt.Errorf("dexdump: %d shards exceed the codec limit", len(shards))
	}
	var indexPayload []byte
	for _, sh := range shards {
		indexPayload = appendShard(indexPayload, sh)
	}
	dumpPayload := appendDump(nil, t)
	manifestPayload := appendManifest(nil, BuildManifest(t, plan))

	buf := make([]byte, codecHeaderSize, codecHeaderSize+len(indexPayload)+
		dumpSectionHeaderSize+len(dumpPayload)+manifestSectionHeaderSize+len(manifestPayload))
	copy(buf[0:4], codecMagic)
	binary.LittleEndian.PutUint16(buf[4:6], CodecVersion)
	binary.LittleEndian.PutUint16(buf[6:8], uint16(len(shards)))
	binary.LittleEndian.PutUint64(buf[8:16], DumpHash(t))
	binary.LittleEndian.PutUint32(buf[16:20], uint32(t.LineCount()))
	binary.LittleEndian.PutUint32(buf[20:24], crc32.ChecksumIEEE(indexPayload))
	binary.LittleEndian.PutUint32(buf[24:28], uint32(len(indexPayload)))
	buf = append(buf, indexPayload...)

	var dh [dumpSectionHeaderSize]byte
	binary.LittleEndian.PutUint64(dh[0:8], fingerprint)
	binary.LittleEndian.PutUint32(dh[8:12], crc32.ChecksumIEEE(dumpPayload))
	binary.LittleEndian.PutUint32(dh[12:16], uint32(len(dumpPayload)))
	buf = append(buf, dh[:]...)
	buf = append(buf, dumpPayload...)

	var mh [manifestSectionHeaderSize]byte
	binary.LittleEndian.PutUint32(mh[0:4], crc32.ChecksumIEEE(manifestPayload))
	binary.LittleEndian.PutUint32(mh[4:8], uint32(len(manifestPayload)))
	buf = append(buf, mh[:]...)
	return append(buf, manifestPayload...), nil
}

// checkHeader validates the magic, version and length of the fixed
// header shared by every section decoder.
func checkHeader(data []byte) error {
	if len(data) < codecHeaderSize {
		return fmt.Errorf("dexdump: bundle truncated: %d bytes", len(data))
	}
	if string(data[0:4]) != codecMagic {
		return fmt.Errorf("dexdump: bundle bad magic %q", data[0:4])
	}
	if v := binary.LittleEndian.Uint16(data[4:6]); v != CodecVersion {
		return fmt.Errorf("dexdump: bundle version %d, want %d", v, CodecVersion)
	}
	return nil
}

// indexSection validates the header and returns the index payload,
// without touching the later sections.
func indexSection(data []byte) ([]byte, error) {
	if err := checkHeader(data); err != nil {
		return nil, err
	}
	n := int(binary.LittleEndian.Uint32(data[24:28]))
	if n > len(data)-codecHeaderSize {
		return nil, fmt.Errorf("dexdump: index section claims %d bytes, %d remain", n, len(data)-codecHeaderSize)
	}
	return data[codecHeaderSize : codecHeaderSize+n], nil
}

// DecodeIndexFile parses the index section of a bundle and validates it
// against the dump text. A one-shard section decodes to a plain *Index, a
// multi-shard section to a *ShardedIndex. Any validation failure returns
// an error; the caller rebuilds from the dump.
func DecodeIndexFile(data []byte, t *Text) (Source, error) {
	payload, err := indexSection(data)
	if err != nil {
		return nil, err
	}
	shardCount := int(binary.LittleEndian.Uint16(data[6:8]))
	if shardCount == 0 {
		return nil, fmt.Errorf("dexdump: index section has no shards")
	}
	if h := binary.LittleEndian.Uint64(data[8:16]); h != DumpHash(t) {
		return nil, fmt.Errorf("dexdump: bundle stale: content hash mismatch")
	}
	if n := int(binary.LittleEndian.Uint32(data[16:20])); n != t.LineCount() {
		return nil, fmt.Errorf("dexdump: bundle stale: %d lines, dump has %d", n, t.LineCount())
	}
	if crc := binary.LittleEndian.Uint32(data[20:24]); crc != crc32.ChecksumIEEE(payload) {
		return nil, fmt.Errorf("dexdump: index payload CRC mismatch")
	}
	shards := make([]*Index, shardCount)
	rest := payload
	var err2 error
	for i := range shards {
		shards[i], rest, err2 = decodeShard(rest, t.LineCount())
		if err2 != nil {
			return nil, fmt.Errorf("dexdump: index section shard %d: %w", i, err2)
		}
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("dexdump: index section has %d trailing bytes", len(rest))
	}
	if shardCount == 1 {
		idx := shards[0]
		idx.lines = t.LineCount()
		return idx, nil
	}
	return &ShardedIndex{shards: shards, lines: t.LineCount()}, nil
}

// DecodeBundleDump parses and validates the dump section of a bundle,
// reconstructing the dexdump.Text without any disassembly. Unlike the
// index section it cannot be validated against an existing dump — that is
// its entire point — so it validates against itself and against the app:
// the stored fingerprint must equal the caller's (computed from the app's
// dex files), the payload CRC must match, and the decoded text must hash
// back to the header's dump hash and line count.
func DecodeBundleDump(data []byte, fingerprint uint64) (*Text, error) {
	if err := checkHeader(data); err != nil {
		return nil, err
	}
	indexLen := int(binary.LittleEndian.Uint32(data[24:28]))
	if indexLen > len(data)-codecHeaderSize-dumpSectionHeaderSize {
		return nil, fmt.Errorf("dexdump: bundle has no room for a dump section")
	}
	sec := data[codecHeaderSize+indexLen:]
	if fingerprint == 0 {
		return nil, fmt.Errorf("dexdump: cannot validate a dump section without an app fingerprint")
	}
	if fp := binary.LittleEndian.Uint64(sec[0:8]); fp != fingerprint {
		return nil, fmt.Errorf("dexdump: dump section stale: app fingerprint mismatch")
	}
	n := int(binary.LittleEndian.Uint32(sec[12:16]))
	if n > len(sec)-dumpSectionHeaderSize {
		return nil, fmt.Errorf("dexdump: dump payload claims %d bytes, %d remain", n, len(sec)-dumpSectionHeaderSize)
	}
	payload := sec[dumpSectionHeaderSize : dumpSectionHeaderSize+n]
	// Frame the manifest section so appended garbage still decodes as an
	// error; its payload integrity is DecodeManifest's concern.
	trailing := sec[dumpSectionHeaderSize+n:]
	if len(trailing) < manifestSectionHeaderSize {
		return nil, fmt.Errorf("dexdump: bundle has no room for a manifest section")
	}
	if mlen := int(binary.LittleEndian.Uint32(trailing[4:8])); len(trailing) != manifestSectionHeaderSize+mlen {
		return nil, fmt.Errorf("dexdump: manifest section claims %d bytes, %d remain",
			mlen, len(trailing)-manifestSectionHeaderSize)
	}
	if crc := binary.LittleEndian.Uint32(sec[8:12]); crc != crc32.ChecksumIEEE(payload) {
		return nil, fmt.Errorf("dexdump: dump payload CRC mismatch")
	}
	t, err := decodeDump(payload)
	if err != nil {
		return nil, fmt.Errorf("dexdump: dump section: %w", err)
	}
	if h := binary.LittleEndian.Uint64(data[8:16]); h != DumpHash(t) {
		return nil, fmt.Errorf("dexdump: decoded dump does not hash back to the header")
	}
	if n := int(binary.LittleEndian.Uint32(data[16:20])); n != t.LineCount() {
		return nil, fmt.Errorf("dexdump: decoded dump has %d lines, header says %d", t.LineCount(), n)
	}
	return t, nil
}

// CachePath returns the bundle path for an app inside dir.
func CachePath(dir, appName string) string {
	return filepath.Join(dir, appName+CacheFileExt)
}

// WriteBundle atomically persists the dump, its index and its shard
// manifest next to path (temp file + rename), creating the directory if
// needed.
func WriteBundle(path string, t *Text, src Source, fingerprint uint64, plan *ShardPlan) error {
	data, err := EncodeBundle(t, src, fingerprint, plan)
	if err != nil {
		return err
	}
	return WriteBundleBytes(path, data)
}

// WriteBundleBytes atomically persists already-encoded bundle bytes (temp
// file + rename), creating the directory if needed. Callers that feed both
// the disk cache and an in-memory store encode once and reuse the bytes.
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
	return os.Rename(tmp.Name(), path)
}

// LoadIndexCache reads a bundle and validates its index section against
// the dump text.
func LoadIndexCache(path string, t *Text) (Source, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return DecodeIndexFile(data, t)
}

// LoadBundleDump reads a bundle and validates + reconstructs its dump
// section for the app with the given fingerprint.
func LoadBundleDump(path string, fingerprint uint64) (*Text, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return DecodeBundleDump(data, fingerprint)
}

// DecodeManifest parses and validates the shard-manifest section of a
// bundle. Unlike every other decoder in this file it reports failure as
// ok=false instead of an error: a missing or damaged manifest never
// invalidates the bundle's index or dump — it only disables the delta
// fast path, so callers fall back to a silent full analysis. Validation
// covers the section CRC, the payload bounds, the shard assignment range
// and the total line count against the bundle header, so a manifest that
// decodes ok is internally consistent with its bundle.
func DecodeManifest(data []byte) (*Manifest, bool) {
	if checkHeader(data) != nil {
		return nil, false
	}
	indexLen := int(binary.LittleEndian.Uint32(data[24:28]))
	if indexLen < 0 || indexLen > len(data)-codecHeaderSize-dumpSectionHeaderSize {
		return nil, false
	}
	sec := data[codecHeaderSize+indexLen:]
	dumpLen := int(binary.LittleEndian.Uint32(sec[12:16]))
	if dumpLen < 0 || dumpLen > len(sec)-dumpSectionHeaderSize-manifestSectionHeaderSize {
		return nil, false
	}
	msec := sec[dumpSectionHeaderSize+dumpLen:]
	mlen := int(binary.LittleEndian.Uint32(msec[4:8]))
	if mlen < 0 || len(msec) != manifestSectionHeaderSize+mlen {
		return nil, false
	}
	payload := msec[manifestSectionHeaderSize:]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(msec[0:4]) {
		return nil, false
	}
	m, err := decodeManifestPayload(payload)
	if err != nil {
		return nil, false
	}
	if m.TotalLines() != int(binary.LittleEndian.Uint32(data[16:20])) {
		return nil, false
	}
	return m, true
}

// appendManifest serializes a Manifest: shard count, entry count, then
// per entry name, fingerprint, line count and shard assignment.
func appendManifest(buf []byte, m *Manifest) []byte {
	buf = binary.AppendUvarint(buf, uint64(m.Shards))
	buf = binary.AppendUvarint(buf, uint64(len(m.Entries)))
	var fp [8]byte
	for _, e := range m.Entries {
		buf = appendString(buf, e.Name)
		binary.LittleEndian.PutUint64(fp[:], e.Fingerprint)
		buf = append(buf, fp[:]...)
		buf = binary.AppendUvarint(buf, uint64(e.Lines))
		buf = binary.AppendUvarint(buf, uint64(e.Shard))
	}
	return buf
}

// decodeManifestPayload reconstructs a Manifest, bounds-checking every
// count so a corrupt payload decodes as an error, never a panic.
func decodeManifestPayload(buf []byte) (*Manifest, error) {
	shards, buf, err := readUvarint(buf)
	if err != nil {
		return nil, err
	}
	if shards == 0 || shards > 0xffff {
		return nil, fmt.Errorf("manifest claims %d shards", shards)
	}
	count, buf, err := readUvarint(buf)
	if err != nil {
		return nil, err
	}
	if count > uint64(len(buf)) {
		return nil, fmt.Errorf("manifest claims %d entries, %d bytes remain", count, len(buf))
	}
	m := &Manifest{Entries: make([]ManifestEntry, count), Shards: int(shards)}
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
		var lines, shard uint64
		if lines, buf, err = readUvarint(buf); err != nil {
			return nil, err
		}
		if shard, buf, err = readUvarint(buf); err != nil {
			return nil, err
		}
		if lines > 1<<32 {
			return nil, fmt.Errorf("manifest entry %d claims %d lines", i, lines)
		}
		if shard >= shards {
			return nil, fmt.Errorf("manifest entry %d assigned to shard %d of %d", i, shard, shards)
		}
		e.Lines = int(lines)
		e.Shard = int(shard)
		m.Entries[i] = e
	}
	if len(buf) != 0 {
		return nil, fmt.Errorf("%d trailing bytes after the manifest payload", len(buf))
	}
	return m, nil
}

// ShardPayloads splits a v3 bundle's index section into its per-shard
// encoded payloads, paired with the manifest's shard fingerprints — the
// feed of the service's cross-app shard store, which shares one postings
// blob between every bundle whose shard has identical class contents.
// ok=false on any inconsistency (no manifest, damaged index section,
// shard-count mismatch); the store then simply learns nothing.
func ShardPayloads(data []byte) (fps []uint64, payloads [][]byte, ok bool) {
	m, mok := DecodeManifest(data)
	if !mok {
		return nil, nil, false
	}
	payload, err := indexSection(data)
	if err != nil {
		return nil, nil, false
	}
	// The payload split below trusts the index section's framing, so the
	// section CRC must hold — the store must never learn a damaged blob.
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(data[20:24]) {
		return nil, nil, false
	}
	shardCount := int(binary.LittleEndian.Uint16(data[6:8]))
	if shardCount != m.Shards {
		return nil, nil, false
	}
	lineCount := int(binary.LittleEndian.Uint32(data[16:20]))
	payloads = make([][]byte, shardCount)
	rest := payload
	for i := 0; i < shardCount; i++ {
		before := len(rest)
		if _, rest, err = decodeShard(rest, lineCount); err != nil {
			return nil, nil, false
		}
		payloads[i] = payload[len(payload)-before : len(payload)-len(rest)]
	}
	return m.ShardFingerprints(), payloads, true
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

// decodeDump reconstructs a Text from its serialized form, bounds-checking
// every count so a corrupt payload decodes as an error, never a panic.
func decodeDump(buf []byte) (*Text, error) {
	fullLen, buf, err := readUvarint(buf)
	if err != nil {
		return nil, err
	}
	if fullLen > uint64(len(buf)) {
		return nil, fmt.Errorf("full text claims %d bytes, %d remain", fullLen, len(buf))
	}
	t := &Text{full: string(buf[:fullLen])}
	buf = buf[fullLen:]
	if t.full != "" {
		if t.full[len(t.full)-1] != '\n' {
			return nil, fmt.Errorf("full text does not end in a newline")
		}
		t.lines = strings.Split(t.full[:len(t.full)-1], "\n")
	}

	methodCount, buf, err := readUvarint(buf)
	if err != nil {
		return nil, err
	}
	if methodCount > uint64(len(buf)) {
		return nil, fmt.Errorf("method table claims %d entries, %d bytes remain", methodCount, len(buf))
	}
	t.methods = make([]dex.MethodRef, methodCount)
	for i := range t.methods {
		var m dex.MethodRef
		var ret string
		if m.Class, buf, err = readString(buf); err != nil {
			return nil, err
		}
		if m.Name, buf, err = readString(buf); err != nil {
			return nil, err
		}
		if ret, buf, err = readString(buf); err != nil {
			return nil, err
		}
		m.Ret = dex.TypeDesc(ret)
		var params uint64
		if params, buf, err = readUvarint(buf); err != nil {
			return nil, err
		}
		if params > uint64(len(buf)) {
			return nil, fmt.Errorf("method %d claims %d params", i, params)
		}
		m.Params = make([]dex.TypeDesc, params)
		for j := range m.Params {
			var p string
			if p, buf, err = readString(buf); err != nil {
				return nil, err
			}
			m.Params[j] = dex.TypeDesc(p)
		}
		t.methods[i] = m
	}

	t.methodOfLine = make([]int, len(t.lines))
	for i := range t.methodOfLine {
		var v uint64
		if v, buf, err = readUvarint(buf); err != nil {
			return nil, err
		}
		if v > uint64(len(t.methods)) {
			return nil, fmt.Errorf("line %d attributed to method %d of %d", i, v, len(t.methods))
		}
		t.methodOfLine[i] = int(v) - 1
	}

	spanCount, buf, err := readUvarint(buf)
	if err != nil {
		return nil, err
	}
	if spanCount > uint64(len(t.lines))+1 {
		return nil, fmt.Errorf("%d class spans for a %d-line dump", spanCount, len(t.lines))
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
		if length > uint64(len(t.lines)-at) {
			return nil, fmt.Errorf("class span %d overruns the dump", i)
		}
		t.spans[i] = ClassSpan{Name: name, Start: at, End: at + int(length)}
		at += int(length)
	}
	if at != len(t.lines) {
		return nil, fmt.Errorf("class spans cover %d of %d lines", at, len(t.lines))
	}
	if len(buf) != 0 {
		return nil, fmt.Errorf("%d trailing bytes after the dump payload", len(buf))
	}
	return t, nil
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

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

// appendShard encodes one shard: the lines/postings counters, all nine
// postings maps (sorted keys, delta-varint lists) and the four side lists.
func appendShard(buf []byte, x *Index) []byte {
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
		&x.invokeBySig, &x.invokeByName, &x.invokeByNameP, &x.ctorByPrefix,
		&x.newInstance, &x.constClass, &x.constString, &x.fieldBySig, &x.classUse,
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
		buf = binary.AppendUvarint(buf, uint64(len(k)))
		buf = append(buf, k...)
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

func decodeShard(buf []byte, maxLines int) (*Index, []byte, error) {
	x := newIndex(0)
	lines, buf, err := readUvarint(buf)
	if err != nil {
		return nil, nil, err
	}
	postings, buf, err := readUvarint(buf)
	if err != nil {
		return nil, nil, err
	}
	if lines > uint64(maxLines) {
		return nil, nil, fmt.Errorf("shard claims %d lines, dump has %d", lines, maxLines)
	}
	x.lines = int(lines)
	x.postings = int(postings)
	for _, m := range x.maps() {
		*m, buf, err = decodeMap(buf, maxLines)
		if err != nil {
			return nil, nil, err
		}
	}
	for _, l := range x.sideLists() {
		*l, buf, err = decodePostings(buf, maxLines)
		if err != nil {
			return nil, nil, err
		}
	}
	return x, buf, nil
}

func decodeMap(buf []byte, maxLines int) (map[string][]int32, []byte, error) {
	count, buf, err := readUvarint(buf)
	if err != nil {
		return nil, nil, err
	}
	m := make(map[string][]int32, count)
	for i := uint64(0); i < count; i++ {
		var klen uint64
		klen, buf, err = readUvarint(buf)
		if err != nil {
			return nil, nil, err
		}
		if uint64(len(buf)) < klen {
			return nil, nil, fmt.Errorf("truncated map key")
		}
		key := string(buf[:klen])
		buf = buf[klen:]
		var p []int32
		p, buf, err = decodePostings(buf, maxLines)
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
// hand-crafted file must decode as a miss, never panic later.
func decodePostings(buf []byte, maxLines int) ([]int32, []byte, error) {
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
	p := make([]int32, 0, count)
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

func readUvarint(buf []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(buf)
	if n <= 0 {
		return 0, nil, fmt.Errorf("truncated varint")
	}
	return v, buf[n:], nil
}
