// The settled-result tier: a content-addressed store of terminal
// reports. A report is addressed by (dexdump.AppFingerprint,
// OptionsFingerprint) — what was analyzed and how — so resubmitting a
// settled pair is answered from the store in O(1) with zero disassembly,
// zero index builds and zero engine runs, charged one flat
// simtime.ChargeSettledLookup. The in-memory section is LRU-bounded by a
// byte budget over canonical encodings; an attached journal persists
// every admitted report as a KindReport record, so Recover repopulates
// the store after a restart.
package service

import (
	"sync"

	"backdroid/internal/core"
	"backdroid/internal/service/journal"
)

// ReportKey is the content address of one settled report: the app
// fingerprint (a hash of the input bytecode) paired with the options
// fingerprint (a hash of every verdict-relevant engine setting). Two
// submissions sharing a key are guaranteed — by the fingerprint
// soundness argument in fingerprint.go — to produce bitwise-identical
// reports, which is what makes serving the stored one correct.
type ReportKey struct {
	App     uint64 // dexdump.AppFingerprint of the job's dex files
	Options uint64 // OptionsFingerprint of the job's core.Options
}

// ReportStore is the in-memory settled-report cache. Entries are
// content-addressed and therefore immutable: a Put for a present key is
// a refresh, never a replacement. Eviction is LRU under a byte budget
// measured over canonical encodings (see lru); an evicted entry survives
// in the journal (when one is attached) and comes back on the next
// restart's Recover — the memory budget bounds the working set, not
// durability. Its counters surface through the scheduler's metrics
// registry.
//
// A ReportStore is safe for concurrent use.
type ReportStore struct {
	mu  sync.Mutex
	lru lru[ReportKey, settledReport]
	j   *journal.Journal

	journaled int64 // reports appended to the journal
	skipped   int64 // reports not journaled (oversized or append failed)
	recovered int64 // entries repopulated from the journal
	damaged   int64 // journal report records that failed to decode
}

type settledReport struct {
	report *core.Report
	data   []byte // canonical encoding (EncodeReport)
}

// reportStoreStats are a ReportStore's LRU and journal counters.
type reportStoreStats struct {
	lruStats
	Journaled, Skipped, Recovered, Damaged int64
}

// NewReportStore builds a store with the given byte budget; budgetBytes
// <= 0 means unlimited.
func NewReportStore(budgetBytes int64) *ReportStore {
	return &ReportStore{lru: newLRU[ReportKey, settledReport](budgetBytes)}
}

// AttachJournal gives the store a persistent section: every subsequent
// Put also appends a KindReport record, and Recover repopulates from the
// journal's live report records. Attach before Recover and before any
// Put that should persist.
func (s *ReportStore) AttachJournal(j *journal.Journal) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.j = j
}

// Get returns the settled report for the key and marks the entry most
// recently used. The returned report is shared and must be treated as
// read-only — callers replaying it copy the Report shell and keep the
// sink pointers, exactly like the engine's own result path.
func (s *ReportStore) Get(key ReportKey) (*core.Report, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.lru.get(key)
	return e.report, ok
}

// Encoded returns the canonical encoding of the settled report for the
// key, without touching recency or the hit/miss counters — the byte form
// the HTTP report endpoint serves and the benchgate compares bitwise.
func (s *ReportStore) Encoded(key ReportKey) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.lru.peek(key)
	return e.data, ok
}

// Put inserts the terminal report under its content address, evicting
// least-recently-used entries until the byte budget holds, and appends
// it to the attached journal. A Put for a present key only refreshes its
// recency — the key is a content hash of inputs and configuration, so
// the report is identical. Reports larger than the whole budget are not
// admitted; reports larger than journal.MaxReportData stay in memory but
// are not journaled (Skipped counts them).
func (s *ReportStore) Put(key ReportKey, r *core.Report) {
	if r == nil {
		return
	}
	data := EncodeReport(r)
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.lru.put(key, settledReport{r, data}, int64(len(data))) || s.j == nil {
		return
	}
	if len(data) > journal.MaxReportData {
		s.skipped++
	} else if err := s.j.Append(journal.Record{
		Kind: journal.KindReport,
		App:  key.App,
		Opt:  key.Options,
		Data: data,
	}); err != nil {
		// Journaling is durability, not correctness: the entry still
		// serves from memory; it just won't survive a restart.
		s.skipped++
	} else {
		s.journaled++
	}
}

// Recover repopulates the store from the attached journal's live report
// records, oldest first, without re-journaling them. Records that fail
// to decode are skipped (and counted in Damaged) — a damaged persistent
// entry degrades to a cold re-analysis, never to a wrong answer. It
// returns the number of reports recovered into memory.
func (s *ReportStore) Recover() int {
	s.mu.Lock()
	j := s.j
	s.mu.Unlock()
	if j == nil {
		return 0
	}
	n := 0
	for _, rec := range j.Reports() {
		r, err := DecodeReport(rec.Data)
		s.mu.Lock()
		key := ReportKey{App: rec.App, Options: rec.Opt}
		if err != nil {
			s.damaged++
		} else if _, ok := s.lru.peek(key); !ok &&
			s.lru.admit(key, settledReport{r, rec.Data}, int64(len(rec.Data))) {
			s.recovered++
			n++
		}
		s.mu.Unlock()
	}
	return n
}

// stats returns the current counters.
func (s *ReportStore) stats() reportStoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return reportStoreStats{s.lru.snapshot(), s.journaled, s.skipped, s.recovered, s.damaged}
}
