package journal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// recordsEqual compares two records field by field (Record holds a
// []byte, so == does not compile).
func recordsEqual(a, b Record) bool {
	return a.Kind == b.Kind && a.Job == b.Job && a.Tenant == b.Tenant &&
		a.Name == b.Name && a.Spec == b.Spec && a.Err == b.Err &&
		a.App == b.App && a.Opt == b.Opt && bytes.Equal(a.Data, b.Data) &&
		a.Node == b.Node && a.Attempt == b.Attempt
}

// writeLifecycle appends one job's full record sequence.
func writeLifecycle(t *testing.T, j *Journal, id int64, terminal Kind) {
	t.Helper()
	recs := []Record{
		{Kind: KindSubmit, Job: id, Tenant: "acme", Name: "app", Spec: "/apps/app.apk"},
		{Kind: KindStart, Job: id},
	}
	if terminal != 0 {
		r := Record{Kind: terminal, Job: id}
		if terminal == KindFailed {
			r.Err = "boom"
		}
		recs = append(recs, r)
	}
	for _, r := range recs {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
}

func TestJournalRoundtripAndPending(t *testing.T) {
	dir := t.TempDir()
	j, pending, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 0 {
		t.Fatalf("fresh journal has %d pending records", len(pending))
	}
	writeLifecycle(t, j, 1, KindDone)
	writeLifecycle(t, j, 2, KindFailed)
	writeLifecycle(t, j, 3, KindCanceled)
	writeLifecycle(t, j, 4, 0) // started, never finished (in-flight crash)
	if err := j.Append(Record{Kind: KindSubmit, Job: 5, Tenant: "free", Name: "b", Spec: "/apps/b.apk"}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, pending, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(pending) != 2 {
		t.Fatalf("pending = %v, want jobs 4 and 5", pending)
	}
	if pending[0].Job != 4 || pending[1].Job != 5 {
		t.Fatalf("pending order = %d,%d, want 4,5", pending[0].Job, pending[1].Job)
	}
	if pending[0].Tenant != "acme" || pending[0].Spec != "/apps/app.apk" {
		t.Fatalf("pending[0] lost its payload: %+v", pending[0])
	}
	if pending[1].Tenant != "free" || pending[1].Name != "b" {
		t.Fatalf("pending[1] lost its payload: %+v", pending[1])
	}
	if got := j2.MaxJobID(); got != 5 {
		t.Fatalf("MaxJobID = %d, want 5", got)
	}
	st := j2.Stats()
	if st.Pending != 2 || st.Recovered != 12 || st.Dropped != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestJournalCompaction(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for id := int64(1); id <= 20; id++ {
		term := KindDone
		if id%5 == 0 {
			term = 0 // every fifth job stays pending
		}
		writeLifecycle(t, j, id, Kind(term))
	}
	before := j.Stats()
	if err := j.Compact(); err != nil {
		t.Fatal(err)
	}
	after := j.Stats()
	if after.Records != 4 || after.Pending != 4 {
		t.Fatalf("after compaction: %+v", after)
	}
	if after.Bytes >= before.Bytes {
		t.Fatalf("compaction did not shrink the file: %d -> %d bytes", before.Bytes, after.Bytes)
	}
	if after.Compactions != 1 {
		t.Fatalf("compactions = %d", after.Compactions)
	}
	// The compacted file must append and replay cleanly.
	writeLifecycle(t, j, 21, 0)
	j.Close()
	j2, pending, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	want := []int64{5, 10, 15, 20, 21}
	if len(pending) != len(want) {
		t.Fatalf("pending after compaction+reopen = %v", pending)
	}
	for i, id := range want {
		if pending[i].Job != id {
			t.Fatalf("pending[%d] = %d, want %d", i, pending[i].Job, id)
		}
	}
}

func TestJournalAutoCompaction(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	j.limit = 512 // force the auto-compaction path quickly
	for id := int64(1); id <= 200; id++ {
		writeLifecycle(t, j, id, KindDone)
	}
	st := j.Stats()
	if st.Compactions == 0 {
		t.Fatal("no automatic compaction despite settled history past the limit")
	}
	if st.Bytes > 2048 {
		t.Fatalf("live file still %d bytes after auto-compaction", st.Bytes)
	}
}

// TestJournalCorruptionFuzz mirrors the .bdx codec fuzz: every single-byte
// flip and a sweep of truncations over a populated journal must recover —
// without panicking — to a consistent queue, i.e. a prefix of the original
// record stream with every surviving record intact.
func TestJournalCorruptionFuzz(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	writeLifecycle(t, j, 1, KindDone)
	writeLifecycle(t, j, 2, 0)
	writeLifecycle(t, j, 3, KindCanceled)
	if err := j.Append(Record{Kind: KindSubmit, Job: 4, Tenant: "t", Name: "n", Spec: "/x.apk"}); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Record{Kind: KindReport, App: 0xabc, Opt: 0xdef, Data: []byte("settled-report-bytes")}); err != nil {
		t.Fatal(err)
	}
	// The fleet's dispatch trail: a lease, an expiry-forced handoff, a
	// re-dispatch lease. Transient records — flips inside them must
	// degrade exactly like any other damage, and the surviving prefix's
	// pending/report reconstruction must ignore them.
	for _, r := range []Record{
		{Kind: KindLease, Job: 2, Node: 1, Attempt: 1},
		{Kind: KindHandoff, Job: 2, Node: 1, Attempt: 1},
		{Kind: KindLease, Job: 2, Node: 3, Attempt: 2},
	} {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	path := filepath.Join(dir, FileName)
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	wantRecs, _ := decodeFile(good)

	check := func(name string, data []byte) {
		t.Helper()
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("%s: replay panicked: %v", name, r)
			}
		}()
		cdir := t.TempDir()
		if err := os.WriteFile(filepath.Join(cdir, FileName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		cj, pending, err := Open(cdir)
		if err != nil {
			t.Fatalf("%s: Open must recover, got %v", name, err)
		}
		defer cj.Close()
		// Whatever survived must be a prefix of the original stream: no
		// record may decode to different content, and the pending set must
		// be exactly what that prefix implies.
		recs, _ := decodeFile(readFileOrEmpty(filepath.Join(cdir, FileName)))
		if len(recs) > len(wantRecs) {
			t.Fatalf("%s: recovered %d records from a %d-record file", name, len(recs), len(wantRecs))
		}
		seen := make(map[int64]Record)
		var order []int64
		for i, r := range recs {
			if !recordsEqual(r, wantRecs[i]) {
				t.Fatalf("%s: record %d decoded as %+v, want %+v", name, i, r, wantRecs[i])
			}
			switch {
			case r.Kind == KindSubmit:
				if _, ok := seen[r.Job]; !ok {
					order = append(order, r.Job)
				}
				seen[r.Job] = r
			case r.Kind.terminal():
				delete(seen, r.Job)
			}
		}
		var wantPending []Record
		for _, id := range order {
			if r, ok := seen[id]; ok {
				wantPending = append(wantPending, r)
			}
		}
		if len(pending) != len(wantPending) {
			t.Fatalf("%s: pending = %+v, want %+v", name, pending, wantPending)
		}
		for i := range pending {
			if !recordsEqual(pending[i], wantPending[i]) {
				t.Fatalf("%s: pending[%d] = %+v, want %+v", name, i, pending[i], wantPending[i])
			}
		}
		// The settled-report section must likewise be exactly what the
		// surviving prefix implies — a damaged report record disappears,
		// it never resurfaces with different bytes.
		var wantReports []Record
		for _, r := range recs {
			if r.Kind == KindReport {
				wantReports = append(wantReports, r)
			}
		}
		gotReports := cj.Reports()
		if len(gotReports) != len(wantReports) {
			t.Fatalf("%s: reports = %+v, want %+v", name, gotReports, wantReports)
		}
		for i := range gotReports {
			if !recordsEqual(gotReports[i], wantReports[i]) {
				t.Fatalf("%s: report[%d] = %+v, want %+v", name, i, gotReports[i], wantReports[i])
			}
		}
		// The healed file must itself append and re-open cleanly.
		if err := cj.Append(Record{Kind: KindSubmit, Job: 99, Tenant: "t", Name: "n", Spec: "/y.apk"}); err != nil {
			t.Fatalf("%s: append after recovery: %v", name, err)
		}
	}

	for off := 0; off < len(good); off++ {
		data := append([]byte(nil), good...)
		data[off] ^= 0xa5
		check("flip", data)
	}
	for cut := 0; cut <= len(good); cut++ {
		check("truncate", good[:cut])
	}
	check("trailing", append(append([]byte(nil), good...), 0xAB))
	check("empty", nil)
}

// TestJournalLeaseHandoffRoundtrip pins the fleet record kinds: node
// and attempt survive the codec, the records are transient (never
// pending, dropped by compaction) yet still advance MaxJobID so a
// recovering scheduler cannot reuse an id seen only in a lease.
func TestJournalLeaseHandoffRoundtrip(t *testing.T) {
	for _, kind := range []Kind{KindLease, KindHandoff} {
		r := Record{Kind: kind, Job: 42, Node: 3, Attempt: 2}
		enc := encodeRecord(r)
		dec, n, ok := decodeRecord(enc)
		if !ok || n != int64(len(enc)) || !recordsEqual(dec, r) {
			t.Fatalf("%v roundtrip = %+v (ok=%v), want %+v", kind, dec, ok, r)
		}
	}

	dir := t.TempDir()
	j, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	writeLifecycle(t, j, 1, 0)
	for _, r := range []Record{
		{Kind: KindLease, Job: 1, Node: 2, Attempt: 1},
		{Kind: KindHandoff, Job: 1, Node: 2, Attempt: 1},
		{Kind: KindLease, Job: 7, Node: 1, Attempt: 2}, // orphaned: no submit in this log
	} {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	j2, pending, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 1 || pending[0].Job != 1 {
		t.Fatalf("lease/handoff records changed the pending set: %+v", pending)
	}
	if got := j2.MaxJobID(); got != 7 {
		t.Fatalf("MaxJobID = %d, want 7 (seen only in an orphaned lease)", got)
	}
	if err := j2.Compact(); err != nil {
		t.Fatal(err)
	}
	if st := j2.Stats(); st.Records != 1 || st.Pending != 1 {
		t.Fatalf("compaction must drop the dispatch trail: %+v", st)
	}
	j2.Close()
}

// TestJournalCorruptHookDamagesDiskOnly pins the fault-injection seam:
// a hook that damages a handoff record's on-disk bytes leaves the live
// process's state intact, and the next replay degrades to re-dispatch
// — the terminal record behind the damage is dropped, so the job
// re-pends; it is never duplicated or resurrected with wrong content.
func TestJournalCorruptHookDamagesDiskOnly(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	corrupted := 0
	j.SetCorrupt(func(kind string, encoded []byte) []byte {
		if kind != "handoff" || corrupted > 0 {
			return nil
		}
		corrupted++
		damaged := append([]byte(nil), encoded...)
		damaged[len(damaged)-1] ^= 0xa5
		return damaged
	})
	writeLifecycle(t, j, 1, 0)
	if err := j.Append(Record{Kind: KindHandoff, Job: 1, Node: 2, Attempt: 1}); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Record{Kind: KindDone, Job: 1}); err != nil {
		t.Fatal(err)
	}
	if corrupted != 1 {
		t.Fatalf("hook fired %d times, want 1", corrupted)
	}
	// The live process is oblivious: job 1 settled in memory.
	if st := j.Stats(); st.Pending != 0 {
		t.Fatalf("in-memory state saw the damage: %+v", st)
	}
	j.Close()

	// The replay hits the damaged handoff record, truncates there and
	// loses the done record behind it: job 1 degrades to pending.
	j2, pending, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(pending) != 1 || pending[0].Job != 1 {
		t.Fatalf("pending after corrupt handoff = %+v, want job 1 re-pended", pending)
	}
	if st := j2.Stats(); st.Dropped == 0 {
		t.Fatalf("no bytes dropped despite the damaged record: %+v", st)
	}
}

// TestJournalReportRecordsSurviveCompaction pins the settled-report
// section's durability across compaction: settled job history is
// dropped, live report records are retained (latest per key), and a
// reopen replays them — the fix for compaction discarding the very
// records whose point is surviving it.
func TestJournalReportRecordsSurviveCompaction(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for id := int64(1); id <= 10; id++ {
		writeLifecycle(t, j, id, KindDone)
	}
	writeLifecycle(t, j, 11, 0) // one pending job
	reps := []Record{
		{Kind: KindReport, App: 1, Opt: 10, Data: []byte("stale-one")},
		{Kind: KindReport, App: 2, Opt: 20, Data: []byte("two")},
		{Kind: KindReport, App: 1, Opt: 10, Data: []byte("one")}, // supersedes stale-one
	}
	for _, r := range reps {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Compact(); err != nil {
		t.Fatal(err)
	}
	st := j.Stats()
	if st.Reports != 2 || st.Pending != 1 || st.Records != 3 {
		t.Fatalf("after compaction: %+v, want 1 pending + 2 live reports", st)
	}
	checkReports := func(jj *Journal) {
		t.Helper()
		got := jj.Reports()
		if len(got) != 2 {
			t.Fatalf("reports = %+v, want 2", got)
		}
		// First-insertion order, latest data per key.
		if got[0].App != 1 || string(got[0].Data) != "one" {
			t.Fatalf("report[0] = %+v, want the superseding (1,10) record", got[0])
		}
		if got[1].App != 2 || string(got[1].Data) != "two" {
			t.Fatalf("report[1] = %+v", got[1])
		}
	}
	checkReports(j)
	j.Close()

	j2, pending, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(pending) != 1 || pending[0].Job != 11 {
		t.Fatalf("pending after compaction+reopen = %+v", pending)
	}
	checkReports(j2)
}

// TestJournalAutoCompactionKeepsReports pins that the automatic
// compaction triggered mid-Append also retains the report section.
func TestJournalAutoCompactionKeepsReports(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	j.limit = 512
	if err := j.Append(Record{Kind: KindReport, App: 7, Opt: 8, Data: []byte("keep-me")}); err != nil {
		t.Fatal(err)
	}
	for id := int64(1); id <= 200; id++ {
		writeLifecycle(t, j, id, KindDone)
	}
	st := j.Stats()
	if st.Compactions == 0 {
		t.Fatal("no automatic compaction despite settled history past the limit")
	}
	if st.Reports != 1 {
		t.Fatalf("auto-compaction lost the report section: %+v", st)
	}
	got := j.Reports()
	if len(got) != 1 || got[0].App != 7 || string(got[0].Data) != "keep-me" {
		t.Fatalf("reports after auto-compaction = %+v", got)
	}
}

// TestJournalReportOversizeRejected pins the append bound: a report
// payload past MaxReportData is refused outright (the store skips
// persisting it) — unlike strings, report bytes are never truncated,
// because a truncated encoding would replay as damage.
func TestJournalReportOversizeRejected(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.Append(Record{Kind: KindReport, App: 1, Opt: 1, Data: make([]byte, MaxReportData+1)}); err == nil {
		t.Fatal("oversized report record accepted")
	}
	if err := j.Append(Record{Kind: KindReport, App: 1, Opt: 1, Data: make([]byte, MaxReportData)}); err != nil {
		t.Fatalf("boundary-sized report record rejected: %v", err)
	}
	if st := j.Stats(); st.Reports != 1 || st.Appends != 1 {
		t.Fatalf("stats = %+v, want exactly the boundary record", st)
	}
}

// TestJournalHealsDamagedTail pins that Open truncates a torn append back
// to the last whole record on disk, so the next process starts from a
// whole file.
func TestJournalHealsDamagedTail(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	writeLifecycle(t, j, 1, 0)
	j.Close()
	path := filepath.Join(dir, FileName)
	good, _ := os.ReadFile(path)
	torn := append(append([]byte(nil), good...), 0x03, 0x44, 0x00) // half a record header
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	j2, pending, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 1 || pending[0].Job != 1 {
		t.Fatalf("pending after torn tail = %+v", pending)
	}
	if st := j2.Stats(); st.Dropped != 3 {
		t.Fatalf("Dropped = %d, want 3", st.Dropped)
	}
	j2.Close()
	healed, _ := os.ReadFile(path)
	if !bytes.Equal(healed, good) {
		t.Fatal("healed file differs from the pre-damage content")
	}
}

// TestJournalRecordDeterministicBytes pins byte-stable encoding: the
// crash-recovery diff depends on replayed submissions being identical.
func TestJournalRecordDeterministicBytes(t *testing.T) {
	r := Record{Kind: KindSubmit, Job: 7, Tenant: "acme", Name: "app", Spec: "/a.apk"}
	a, b := encodeRecord(r), encodeRecord(r)
	if !bytes.Equal(a, b) {
		t.Fatal("encodeRecord not deterministic")
	}
	dec, n, ok := decodeRecord(a)
	if !ok || n != int64(len(a)) || !recordsEqual(dec, r) {
		t.Fatalf("roundtrip = %+v (%d bytes, ok=%v), want %+v", dec, n, ok, r)
	}
}

// TestJournalOversizedFieldsTruncateNotCorrupt pins the encode/decode
// limit contract: a record with an absurdly long string field is
// truncated at write time, so replay never mistakes it for corruption
// and never drops the records behind it.
func TestJournalOversizedFieldsTruncateNotCorrupt(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	huge := strings.Repeat("x", 2<<20)
	if err := j.Append(Record{Kind: KindSubmit, Job: 1, Tenant: "t", Name: "n", Spec: "/a.apk"}); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Record{Kind: KindFailed, Job: 1, Err: huge}); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Record{Kind: KindSubmit, Job: 2, Tenant: huge, Name: "after", Spec: "/b.apk"}); err != nil {
		t.Fatal(err)
	}
	j.Close()

	j2, pending, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if st := j2.Stats(); st.Dropped != 0 || st.Recovered != 3 {
		t.Fatalf("oversized fields treated as corruption: %+v", st)
	}
	// Job 1 settled (its failed record replayed, Err truncated); job 2,
	// recorded after the oversized records, survives intact.
	if len(pending) != 1 || pending[0].Job != 2 || pending[0].Name != "after" {
		t.Fatalf("pending = %+v", pending)
	}
	if got := len(pending[0].Tenant); got != maxFieldSize {
		t.Fatalf("tenant field truncated to %d bytes, want %d", got, maxFieldSize)
	}
}

// TestJournalCompactFailureKeepsAppending pins that a failed rewrite
// (here: the directory made read-only so the temp file cannot be
// created) leaves the live handle working — the journal keeps its
// uncompacted history rather than going silently dark.
func TestJournalCompactFailureKeepsAppending(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	writeLifecycle(t, j, 1, KindDone)
	if err := os.Chmod(dir, 0o555); err != nil {
		t.Fatal(err)
	}
	defer os.Chmod(dir, 0o755)
	if err := j.Compact(); err == nil {
		t.Skip("filesystem permits writes in a read-only dir (running as root?)")
	}
	// The handle survived: appends still land in the old file.
	if err := j.Append(Record{Kind: KindSubmit, Job: 2, Tenant: "t", Name: "n", Spec: "/b.apk"}); err != nil {
		t.Fatalf("append after failed compaction: %v", err)
	}
	os.Chmod(dir, 0o755)
	j.Close()
	_, pending, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 1 || pending[0].Job != 2 {
		t.Fatalf("pending after failed compaction = %+v", pending)
	}
}

// TestJournalReplayRejectsNonCanonicalRecords pins that replay accepts
// only what the encoder can write: a CRC-valid submit whose tenant is
// past maxFieldSize, or a report past MaxReportData, ends the valid
// prefix instead of replaying a record the next compaction would
// rewrite differently. The payloads are built by hand, as a writer that
// skipped encodeRecord's limits would build them.
func TestJournalReplayRejectsNonCanonicalRecords(t *testing.T) {
	long := strings.Repeat("t", maxFieldSize+1)
	submit := putU64(nil, 1)
	submit = binary.LittleEndian.AppendUint32(submit, uint32(len(long)))
	submit = append(submit, long...)
	submit = putString(putString(submit, "n"), "/a.apk")

	report := putBytes(putU64(putU64(putU64(nil, 0), 1), 1), make([]byte, MaxReportData+1))

	good := encodeRecord(Record{Kind: KindSubmit, Job: 2, Tenant: "t", Name: "n", Spec: "/b.apk"})
	for name, rec := range map[string][]byte{
		"long tenant": frameRecord(KindSubmit, submit),
		"big report":  frameRecord(KindReport, report),
	} {
		file := append(append(fileHeader(), good...), rec...)
		recs, off := decodeFile(file)
		if len(recs) != 1 || off != int64(headerSize+len(good)) {
			t.Errorf("%s: replayed %d records up to offset %d, want only the record before it (offset %d)",
				name, len(recs), off, headerSize+len(good))
		}
	}
}

// fixCRCs returns a copy of a journal file with every record's CRC
// recomputed over the bytes it frames, so fuzzed payloads get past the
// CRC check and reach the field decoders.
func fixCRCs(data []byte) []byte {
	out := append([]byte(nil), data...)
	for off := headerSize; off+recHeaderSize <= len(out); {
		plen := int(binary.LittleEndian.Uint32(out[off+1 : off+5]))
		if plen > len(out)-off-recHeaderSize {
			break
		}
		crc := crc32.NewIEEE()
		crc.Write(out[off : off+1])
		crc.Write(out[off+recHeaderSize : off+recHeaderSize+plen])
		binary.LittleEndian.PutUint32(out[off+5:off+9], crc.Sum32())
		off += recHeaderSize + plen
	}
	return out
}

// FuzzDecodeJournal feeds arbitrary bytes to the replay decoder, each
// input raw and with its record CRCs recomputed. Decoding must never
// panic, the valid prefix must lie inside the input, and every record
// it accepts must re-encode to exactly the bytes it was read from.
func FuzzDecodeJournal(f *testing.F) {
	file := fileHeader()
	for _, r := range []Record{
		{Kind: KindSubmit, Job: 1, Tenant: "acme", Name: "app", Spec: "/apps/app.apk"},
		{Kind: KindStart, Job: 1},
		{Kind: KindLease, Job: 1, Node: 2, Attempt: 1},
		{Kind: KindSteal, Job: 1, Node: 1, Attempt: 2},
		{Kind: KindHandoff, Job: 1, Node: 2, Attempt: 1},
		{Kind: KindFailed, Job: 1, Err: "boom"},
		{Kind: KindReport, App: 7, Opt: 9, Data: []byte("report")},
		{Kind: KindDone, Job: 3},
		{Kind: KindCanceled, Job: 4},
	} {
		file = append(file, encodeRecord(r)...)
	}
	f.Add(file)
	f.Add(fileHeader())
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, fixCRCs(data)} {
			recs, end := decodeFile(in)
			if end > int64(len(in)) {
				t.Fatalf("valid prefix ends at %d, past the %d-byte input", end, len(in))
			}
			off := int64(headerSize)
			for _, r := range recs {
				enc := encodeRecord(r)
				next := off + int64(len(enc))
				if next > end || !bytes.Equal(enc, in[off:next]) {
					t.Fatalf("record %+v re-encodes to %x, read from %x", r, enc, in[off:min(next, end)])
				}
				off = next
			}
			if len(recs) > 0 && off != end {
				t.Fatalf("records re-encode to %d bytes, valid prefix is %d", off, end)
			}
		}
	})
}
