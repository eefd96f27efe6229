// Package journal is the durable job log of the batch analysis control
// plane: a versioned append-only file of CRC'd records tracking every job
// submission and its terminal outcome, so a restarted backdroidd can
// re-enqueue the jobs that were queued-or-running when the previous
// process died and produce the same reports it would have produced
// uninterrupted.
//
// The live file (journal.bdj) is:
//
//	offset  size  field
//	0       4     magic "BDJL"
//	4       2     codec version (little endian)
//	6       2     reserved (zero)
//	8       ...   records, back to back
//
// and each record is:
//
//	offset  size  field
//	0       1     kind (KindSubmit..KindHandoff)
//	1       4     payload length (little endian)
//	5       4     IEEE CRC-32 of kind byte + payload
//	9       ...   payload
//
// Payloads hold the job id and, for submits, the tenant, display name and
// an opaque spec string the service uses to rebuild the job (backdroidd
// stores the APK path); settled-report records instead carry the
// (app, options) fingerprint pair and the canonical encoded report;
// fleet lease and handoff records carry the node id and attempt number.
// Strings and byte blobs are u32-length-prefixed.
//
// The codec follows the .bdx discipline (internal/dexdump): every
// validation failure — wrong magic, unknown version, bad CRC, truncation
// mid-record — is recovered from silently, never surfaced as an analysis
// failure. A torn tail (the crash happened mid-append) is truncated back
// to the last whole record; anything after the first damaged record is
// dropped, because without its length the stream cannot be resynchronized.
// Compaction rewrites the file to hold only the still-pending submits
// plus the live settled-report records and replaces it atomically (write
// temp + rename), so a crash during compaction leaves either the old
// file or the new one, never a mix.
package journal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"sync"
)

// CodecVersion is the on-disk format version. Bump it whenever the record
// layout changes; old files then replay as empty (a cold queue) instead of
// failing the service.
const CodecVersion = 1

const (
	journalMagic   = "BDJL"
	headerSize     = 8
	recHeaderSize  = 9 // kind u8 + length u32 + crc u32
	maxPayloadSize = 1 << 20
	// maxFieldSize caps each string field at encode time (longer values
	// are truncated deterministically), so a record the writer accepts is
	// always within maxPayloadSize for the reader — an oversized error
	// message must never make replay treat the file as corrupt and drop
	// every record after it.
	maxFieldSize = 64 << 10
)

// FileName is the live journal file inside the journal directory.
const FileName = "journal.bdj"

// Kind types a journal record. Per job the well-formed sequence is one
// KindSubmit, at most one KindStart, then exactly one of
// KindDone/KindFailed/KindCanceled; replay treats any submit without a
// terminal record — started or not — as pending. KindReport records are
// the journal's persistent settled-report section: independent of any
// job's lifecycle, content-addressed by (app fingerprint, options
// fingerprint), latest record per key wins. KindLease, KindHandoff and
// KindSteal are the fleet coordinator's dispatch trail — which node
// held a job, which handoffs a lease expiry forced, and which sink
// chunks were stolen to idle nodes. They are transient bookkeeping:
// replay folds nothing from them (a job's pendingness is still decided
// solely by submit vs terminal), and compaction drops them, so damage
// to one can never lose or duplicate a report — at worst the replay
// truncates there and the affected jobs re-pend.
type Kind uint8

// Record kinds.
const (
	KindSubmit Kind = iota + 1
	KindStart
	KindDone
	KindFailed
	KindCanceled
	KindReport
	KindLease
	KindHandoff
	KindSteal
)

// String names the record kind.
func (k Kind) String() string {
	switch k {
	case KindSubmit:
		return "submit"
	case KindStart:
		return "start"
	case KindDone:
		return "done"
	case KindFailed:
		return "failed"
	case KindCanceled:
		return "canceled"
	case KindReport:
		return "report"
	case KindLease:
		return "lease"
	case KindHandoff:
		return "handoff"
	case KindSteal:
		return "steal"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// terminal reports whether the kind ends a job's record sequence.
func (k Kind) terminal() bool {
	return k == KindDone || k == KindFailed || k == KindCanceled
}

// Record is one journal entry. Tenant, Name and Spec are set on submits
// (Spec is the opaque string the service rebuilds the job from); Err is
// set on failures; App/Opt/Data are set on settled-report records (the
// content-address pair and the canonical encoded report); Node and
// Attempt are set on fleet lease, handoff and steal records (for
// handoffs, Node is the node the job was taken away from; for steals,
// Node is the thief and Attempt carries the stolen chunk's starting
// sink position instead of a dispatch attempt).
type Record struct {
	Kind    Kind
	Job     int64
	Tenant  string
	Name    string
	Spec    string
	Err     string
	App     uint64 // KindReport: dexdump.AppFingerprint
	Opt     uint64 // KindReport: service.OptionsFingerprint
	Data    []byte // KindReport: canonical encoded report
	Node    int64  // KindLease: holder; KindHandoff: the fenced node
	Attempt int64  // KindLease/KindHandoff: 1-based dispatch attempt
}

// reportKey addresses one settled-report record.
type reportKey struct{ app, opt uint64 }

// MaxReportData caps the encoded-report payload of one KindReport
// record. Append rejects larger reports (the store simply skips
// persisting them — a truncated report would be useless), keeping every
// accepted record within maxPayloadSize for the reader.
const MaxReportData = 512 << 10

// Stats are the counters of a Journal, taken atomically.
type Stats struct {
	Records     int64 // records in the live file
	Bytes       int64 // live file size, header included
	Pending     int   // submits without a terminal record
	Reports     int   // live settled-report records (latest per key)
	Appends     int64 // records appended by this process
	Compactions int64 // atomic rewrites performed
	Recovered   int64 // records replayed from disk at Open
	Dropped     int64 // bytes discarded by corruption recovery at Open
}

// Journal is an open job log. It is safe for concurrent use; the
// scheduler appends from worker goroutines and the stats path reads
// concurrently.
type Journal struct {
	mu      sync.Mutex
	path    string
	f       *os.File
	stats   Stats
	pending map[int64]Record // live submit set, in support of compaction
	order   []int64          // submission order of pending jobs
	maxID   int64            // highest job id seen in any record
	limit   int64            // auto-compaction threshold in bytes

	// The persistent settled-report section: latest record per
	// (app, options) key, in first-insertion order. Compaction retains
	// these alongside the pending submits — a settled report is exactly
	// the record whose whole point is surviving settled history getting
	// compacted away.
	reports     map[reportKey]Record
	reportOrder []reportKey

	// corrupt, when set, may damage a record's on-disk bytes at append
	// time — the fault-injection seam for chaos drills. See SetCorrupt.
	corrupt func(kind string, encoded []byte) []byte
}

// DefaultCompactLimit is the live-file size above which Append compacts
// automatically (when compaction would actually shrink the file).
const DefaultCompactLimit = 1 << 20

// Open opens (creating if absent) the journal in dir and replays it. It
// returns the journal ready for appending plus the pending records: every
// submit without a terminal record, in submission order — the queue the
// previous process died with. Corrupt content is recovered from silently,
// mirroring the .bdx cache discipline: the readable prefix is kept, the
// damaged tail is truncated away and counted in Stats.Dropped.
func Open(dir string) (*Journal, []Record, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	j := &Journal{
		path:    filepath.Join(dir, FileName),
		pending: make(map[int64]Record),
		reports: make(map[reportKey]Record),
		limit:   DefaultCompactLimit,
	}
	recs, keep := decodeFile(readFileOrEmpty(j.path))

	// Rewrite the recovered prefix when anything was damaged (or the file
	// is brand new), so the on-disk state is whole before appending.
	st, err := os.Stat(j.path)
	fileSize := int64(-1)
	if err == nil {
		fileSize = st.Size()
	}
	size := keep
	if fileSize != keep {
		if fileSize > keep {
			j.stats.Dropped = fileSize - keep
		}
		healed, err := j.rewrite(recs)
		if err != nil {
			return nil, nil, err
		}
		size = healed
	}

	f, err := os.OpenFile(j.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	j.f = f
	j.stats.Records = int64(len(recs))
	j.stats.Bytes = size
	j.stats.Recovered = int64(len(recs))
	for _, r := range recs {
		j.apply(r)
	}
	return j, j.pendingRecords(), nil
}

// readFileOrEmpty reads the file, treating absence as emptiness.
func readFileOrEmpty(path string) []byte {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	return data
}

// decodeFile parses as many whole, valid records as the data holds and
// returns them together with the byte offset the valid prefix ends at.
// Any damage — bad magic, unknown version, short header, CRC mismatch,
// truncated payload, absurd length — stops the parse there.
func decodeFile(data []byte) ([]Record, int64) {
	if len(data) < headerSize || string(data[0:4]) != journalMagic ||
		binary.LittleEndian.Uint16(data[4:6]) != CodecVersion {
		return nil, 0
	}
	var recs []Record
	off := int64(headerSize)
	for {
		r, n, ok := decodeRecord(data[off:])
		if !ok {
			break
		}
		recs = append(recs, r)
		off += n
	}
	return recs, off
}

// decodeRecord parses one record from the front of data.
func decodeRecord(data []byte) (Record, int64, bool) {
	if len(data) < recHeaderSize {
		return Record{}, 0, false
	}
	kind := Kind(data[0])
	if kind < KindSubmit || kind > KindSteal {
		return Record{}, 0, false
	}
	plen := binary.LittleEndian.Uint32(data[1:5])
	if plen > maxPayloadSize || recHeaderSize+int64(plen) > int64(len(data)) {
		return Record{}, 0, false
	}
	payload := data[recHeaderSize : recHeaderSize+int(plen)]
	crc := crc32.NewIEEE()
	crc.Write(data[0:1])
	crc.Write(payload)
	if crc.Sum32() != binary.LittleEndian.Uint32(data[5:9]) {
		return Record{}, 0, false
	}
	r, ok := decodePayload(kind, payload)
	if !ok {
		return Record{}, 0, false
	}
	return r, recHeaderSize + int64(plen), true
}

// decodePayload parses the kind-specific payload. It accepts only the
// bytes encodeRecord writes, so a replayed record re-encodes to itself.
func decodePayload(kind Kind, p []byte) (Record, bool) {
	r := Record{Kind: kind}
	job, p, ok := getU64(p)
	if !ok {
		return Record{}, false
	}
	r.Job = int64(job)
	switch kind {
	case KindSubmit:
		if r.Tenant, p, ok = getString(p); !ok {
			return Record{}, false
		}
		if r.Name, p, ok = getString(p); !ok {
			return Record{}, false
		}
		if r.Spec, p, ok = getString(p); !ok {
			return Record{}, false
		}
	case KindFailed:
		if r.Err, p, ok = getString(p); !ok {
			return Record{}, false
		}
	case KindReport:
		if r.App, p, ok = getU64(p); !ok {
			return Record{}, false
		}
		if r.Opt, p, ok = getU64(p); !ok {
			return Record{}, false
		}
		if r.Data, p, ok = getBytes(p); !ok {
			return Record{}, false
		}
	case KindLease, KindHandoff, KindSteal:
		var node, attempt uint64
		if node, p, ok = getU64(p); !ok {
			return Record{}, false
		}
		if attempt, p, ok = getU64(p); !ok {
			return Record{}, false
		}
		r.Node, r.Attempt = int64(node), int64(attempt)
	}
	return r, len(p) == 0
}

func getU64(p []byte) (uint64, []byte, bool) {
	if len(p) < 8 {
		return 0, nil, false
	}
	return binary.LittleEndian.Uint64(p), p[8:], true
}

// getString reads a string field. A field longer than maxFieldSize is
// rejected: putString never writes one, so accepting it would replay a
// record the next compaction rewrites truncated.
func getString(p []byte) (string, []byte, bool) {
	if len(p) < 4 {
		return "", nil, false
	}
	n := binary.LittleEndian.Uint32(p)
	if n > maxFieldSize || int64(n) > int64(len(p))-4 {
		return "", nil, false
	}
	return string(p[4 : 4+n]), p[4+n:], true
}

// getBytes reads a report blob. One longer than MaxReportData is
// rejected, because Append never writes one.
func getBytes(p []byte) ([]byte, []byte, bool) {
	if len(p) < 4 {
		return nil, nil, false
	}
	n := binary.LittleEndian.Uint32(p)
	if n > MaxReportData || int64(n) > int64(len(p))-4 {
		return nil, nil, false
	}
	out := make([]byte, n)
	copy(out, p[4:4+n])
	return out, p[4+n:], true
}

// encodeRecord renders one record in the on-disk format.
func encodeRecord(r Record) []byte {
	var payload []byte
	payload = putU64(payload, uint64(r.Job))
	switch r.Kind {
	case KindSubmit:
		payload = putString(payload, r.Tenant)
		payload = putString(payload, r.Name)
		payload = putString(payload, r.Spec)
	case KindFailed:
		payload = putString(payload, r.Err)
	case KindReport:
		payload = putU64(payload, r.App)
		payload = putU64(payload, r.Opt)
		payload = putBytes(payload, r.Data)
	case KindLease, KindHandoff, KindSteal:
		payload = putU64(payload, uint64(r.Node))
		payload = putU64(payload, uint64(r.Attempt))
	}
	return frameRecord(r.Kind, payload)
}

// frameRecord prefixes a payload with its record header.
func frameRecord(kind Kind, payload []byte) []byte {
	buf := make([]byte, recHeaderSize, recHeaderSize+len(payload))
	buf[0] = byte(kind)
	binary.LittleEndian.PutUint32(buf[1:5], uint32(len(payload)))
	crc := crc32.NewIEEE()
	crc.Write(buf[0:1])
	crc.Write(payload)
	binary.LittleEndian.PutUint32(buf[5:9], crc.Sum32())
	return append(buf, payload...)
}

func putU64(b []byte, v uint64) []byte {
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], v)
	return append(b, n[:]...)
}

func putString(b []byte, s string) []byte {
	if len(s) > maxFieldSize {
		s = s[:maxFieldSize]
	}
	var n [4]byte
	binary.LittleEndian.PutUint32(n[:], uint32(len(s)))
	return append(append(b, n[:]...), s...)
}

// putBytes length-prefixes raw bytes. Unlike strings these are never
// truncated — a truncated report would decode as garbage — so Append
// bounds them with MaxReportData up front instead.
func putBytes(b, data []byte) []byte {
	var n [4]byte
	binary.LittleEndian.PutUint32(n[:], uint32(len(data)))
	return append(append(b, n[:]...), data...)
}

func fileHeader() []byte {
	buf := make([]byte, headerSize)
	copy(buf[0:4], journalMagic)
	binary.LittleEndian.PutUint16(buf[4:6], CodecVersion)
	return buf
}

// apply folds one record into the pending set (or the settled-report
// section, for KindReport).
func (j *Journal) apply(r Record) {
	if r.Job > j.maxID {
		j.maxID = r.Job
	}
	switch {
	case r.Kind == KindSubmit:
		if _, ok := j.pending[r.Job]; !ok {
			j.order = append(j.order, r.Job)
		}
		j.pending[r.Job] = r
	case r.Kind.terminal():
		delete(j.pending, r.Job)
	case r.Kind == KindReport:
		k := reportKey{r.App, r.Opt}
		if _, ok := j.reports[k]; !ok {
			j.reportOrder = append(j.reportOrder, k)
		}
		j.reports[k] = r
	}
}

// pendingRecords returns the pending submits in submission order.
func (j *Journal) pendingRecords() []Record {
	out := make([]Record, 0, len(j.pending))
	for _, id := range j.order {
		if r, ok := j.pending[id]; ok {
			out = append(out, r)
		}
	}
	return out
}

// reportRecords returns the live settled-report records (latest per key)
// in first-insertion order.
func (j *Journal) reportRecords() []Record {
	out := make([]Record, 0, len(j.reports))
	for _, k := range j.reportOrder {
		if r, ok := j.reports[k]; ok {
			out = append(out, r)
		}
	}
	return out
}

// Append writes one record and folds it into the pending set. When the
// live file has grown past the compaction limit and more than half of it
// is settled history, the file is compacted in place (atomically) first.
func (j *Journal) Append(r Record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("journal: closed")
	}
	if r.Kind == KindReport && len(r.Data) > MaxReportData {
		return fmt.Errorf("journal: report record of %d bytes exceeds %d", len(r.Data), MaxReportData)
	}
	live := int64(len(j.pending) + len(j.reports))
	if j.stats.Bytes > j.limit && j.stats.Records > 2*live {
		// Auto-compaction is an optimization: if it fails the record is
		// still appended to the (intact) uncompacted file — unless the
		// failure lost the live handle, which compactLocked reports by
		// clearing it.
		if err := j.compactLocked(); err != nil && j.f == nil {
			return err
		}
	}
	buf := encodeRecord(r)
	if j.corrupt != nil {
		if damaged := j.corrupt(r.Kind.String(), buf); damaged != nil {
			buf = damaged
		}
	}
	if _, err := j.f.Write(buf); err != nil {
		return fmt.Errorf("journal: append: %w", err)
	}
	j.apply(r)
	j.stats.Records++
	j.stats.Bytes += int64(len(buf))
	j.stats.Appends++
	return nil
}

// Compact rewrites the live file to hold only the still-pending submits
// plus the live settled-report section and replaces it atomically.
func (j *Journal) Compact() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("journal: closed")
	}
	return j.compactLocked()
}

func (j *Journal) compactLocked() error {
	pend := j.pendingRecords()
	reps := j.reportRecords()
	keep := make([]Record, 0, len(pend)+len(reps))
	keep = append(keep, pend...)
	keep = append(keep, reps...)
	// Replace the file first, while the live handle still points at the
	// old inode: a failed rewrite leaves the journal exactly as it was,
	// appends included.
	size, err := j.rewrite(keep)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(j.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		// The rename already happened, so the old handle now references
		// the unlinked pre-compaction inode — appending through it would
		// silently write to a file nobody will ever replay. Surrender the
		// handle instead: later Appends fail loudly with "closed".
		j.f.Close()
		j.f = nil
		return fmt.Errorf("journal: compact: %w", err)
	}
	j.f.Close()
	j.f = f
	// Rebuild the bookkeeping from the compacted content so the order
	// slices stop carrying settled ids and superseded report keys.
	j.pending = make(map[int64]Record, len(pend))
	j.order = j.order[:0]
	j.reports = make(map[reportKey]Record, len(reps))
	j.reportOrder = j.reportOrder[:0]
	for _, r := range keep {
		j.apply(r)
	}
	j.stats.Records = int64(len(keep))
	j.stats.Bytes = size
	j.stats.Compactions++
	return nil
}

// rewrite writes header+records to a temp file and renames it over the
// live path — the atomic replacement step shared by corruption recovery
// and compaction. It returns the size of the written file.
func (j *Journal) rewrite(recs []Record) (int64, error) {
	buf := fileHeader()
	for _, r := range recs {
		buf = append(buf, encodeRecord(r)...)
	}
	tmp := j.path + ".tmp"
	if err := os.WriteFile(tmp, buf, 0o644); err != nil {
		return 0, fmt.Errorf("journal: %w", err)
	}
	if err := os.Rename(tmp, j.path); err != nil {
		os.Remove(tmp)
		return 0, fmt.Errorf("journal: %w", err)
	}
	return int64(len(buf)), nil
}

// SetCorrupt installs a fault-injection hook called on every Append
// with the record's kind name and encoded bytes. A non-nil return
// value is written to disk in place of the intact encoding; the
// in-memory state still folds the intact record, so the damage
// surfaces exactly where real bit rot would — on the next replay,
// which recovers by truncating at the damaged record. Chaos drills
// only; nil removes the hook.
func (j *Journal) SetCorrupt(f func(kind string, encoded []byte) []byte) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.corrupt = f
}

// Pending returns the current pending submits in submission order.
func (j *Journal) Pending() []Record {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.pendingRecords()
}

// Reports returns the live settled-report records (latest per key) in
// first-insertion order — the persistent section a restarted report
// store recovers from.
func (j *Journal) Reports() []Record {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.reportRecords()
}

// MaxJobID returns the highest job id the journal has seen in any record
// — the floor a recovering scheduler must issue new ids above, so a
// restarted service never reuses the id of a settled job.
func (j *Journal) MaxJobID() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.maxID
}

// Stats returns the current counters.
func (j *Journal) Stats() Stats {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := j.stats
	st.Pending = len(j.pending)
	st.Reports = len(j.reports)
	return st
}

// Close flushes and closes the live file. Appends after Close fail.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	if err != nil {
		return fmt.Errorf("journal: close: %w", err)
	}
	return nil
}
