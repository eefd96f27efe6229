// Package service is the long-running batch analysis layer on top of the
// BackDroid engine: a Scheduler with a bounded job queue and streaming
// per-sink events, backed by an in-memory content-addressed BundleStore so
// re-analyses of a known app fingerprint perform zero disassembly, zero
// index builds and zero disk I/O. experiments.RunCorpus is a thin client
// of this package; cmd/backdroidd exposes it as a service process.
package service

import (
	"container/list"
	"sync"
)

// StoreStats are the counters of a BundleStore, taken atomically.
type StoreStats struct {
	Entries   int   // live entries
	Bytes     int64 // bytes held by live entries
	Hits      int64 // GetBundle probes that found an entry
	Misses    int64 // GetBundle probes that did not
	Puts      int64 // PutBundle calls that inserted a new entry
	Refreshes int64 // PutBundle calls for an already-present fingerprint
	Evictions int64 // entries dropped to satisfy the byte budget
	Drops     int64 // entries removed by DropBundle (failed validation)
}

// BundleStore is an in-memory content-addressed cache of encoded .bdx
// bundles (dump + index sections), keyed by app fingerprint
// (dexdump.AppFingerprint). Because the key is a content hash of the
// app's bytecode, an entry is immutable for the lifetime of the store: a
// Put for a present fingerprint is a refresh, never a replacement.
// Eviction is LRU under a configurable byte budget; entries larger than
// the whole budget are not admitted at all (admitting one would evict the
// entire working set for a single app).
//
// A BundleStore is safe for concurrent use and implements
// core.BundleCache, so it plugs straight into core.Options.Bundles.
type BundleStore struct {
	mu      sync.Mutex
	budget  int64 // bytes; <= 0 means unlimited
	bytes   int64
	lru     *list.List // front = most recently used; values are *storeEntry
	entries map[uint64]*list.Element
	stats   StoreStats

	// inflight serializes bundle construction per fingerprint (see
	// LockFingerprint).
	inflight map[uint64]*fpLock
}

type storeEntry struct {
	fingerprint uint64
	data        []byte
}

type fpLock struct {
	mu   sync.Mutex
	refs int
}

// NewBundleStore builds a store with the given byte budget; budgetBytes
// <= 0 means unlimited.
func NewBundleStore(budgetBytes int64) *BundleStore {
	return &BundleStore{
		budget:   budgetBytes,
		lru:      list.New(),
		entries:  make(map[uint64]*list.Element),
		inflight: make(map[uint64]*fpLock),
	}
}

// GetBundle returns the bundle bytes for the fingerprint and marks the
// entry most recently used. The returned slice is shared and must be
// treated as read-only (every consumer of .bdx bytes already does).
func (s *BundleStore) GetBundle(fingerprint uint64) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.entries[fingerprint]
	if !ok {
		s.stats.Misses++
		return nil, false
	}
	s.stats.Hits++
	s.lru.MoveToFront(el)
	return el.Value.(*storeEntry).data, true
}

// PutBundle inserts the bundle for the fingerprint, evicting
// least-recently-used entries until the byte budget holds. A Put for a
// present fingerprint only refreshes its recency — entries are
// content-addressed, so the bytes are identical. Empty bundles and
// bundles larger than the whole budget are not admitted.
func (s *BundleStore) PutBundle(fingerprint uint64, data []byte) {
	if len(data) == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.entries[fingerprint]; ok {
		s.stats.Refreshes++
		s.lru.MoveToFront(el)
		return
	}
	if s.budget > 0 && int64(len(data)) > s.budget {
		return
	}
	s.entries[fingerprint] = s.lru.PushFront(&storeEntry{fingerprint: fingerprint, data: data})
	s.bytes += int64(len(data))
	s.stats.Puts++
	for s.budget > 0 && s.bytes > s.budget {
		back := s.lru.Back()
		if back == nil {
			break
		}
		ent := back.Value.(*storeEntry)
		s.lru.Remove(back)
		delete(s.entries, ent.fingerprint)
		s.bytes -= int64(len(ent.data))
		s.stats.Evictions++
	}
}

// DropBundle removes the entry for the fingerprint, if any. The engine
// calls it when a stored bundle fails validation, so a damaged entry is rebuilt instead of pinned: without
// the drop, PutBundle would treat the fingerprint as present and keep
// the bad bytes forever.
func (s *BundleStore) DropBundle(fingerprint uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.entries[fingerprint]
	if !ok {
		return
	}
	ent := el.Value.(*storeEntry)
	s.lru.Remove(el)
	delete(s.entries, fingerprint)
	s.bytes -= int64(len(ent.data))
	s.stats.Drops++
}

// Contains reports whether the fingerprint is cached, without touching
// recency or the hit/miss counters — the scheduler's pre-probe for the
// single-build fast path.
func (s *BundleStore) Contains(fingerprint uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.entries[fingerprint]
	return ok
}

// Fingerprints returns the cached fingerprints in most-recently-used
// order (for tests and diagnostics).
func (s *BundleStore) Fingerprints() []uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]uint64, 0, s.lru.Len())
	for el := s.lru.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*storeEntry).fingerprint)
	}
	return out
}

// Stats returns the current counters.
func (s *BundleStore) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Entries = s.lru.Len()
	st.Bytes = s.bytes
	return st
}

// LockFingerprint serializes bundle construction per fingerprint: the
// first caller proceeds immediately, concurrent callers for the same
// fingerprint block until its release runs. The scheduler takes the lock
// when a job's fingerprint is not yet cached, so N queued jobs for the
// same app perform one cold build and N-1 fully warm runs.
func (s *BundleStore) LockFingerprint(fingerprint uint64) (release func()) {
	s.mu.Lock()
	l := s.inflight[fingerprint]
	if l == nil {
		l = &fpLock{}
		s.inflight[fingerprint] = l
	}
	l.refs++
	s.mu.Unlock()

	l.mu.Lock()
	return func() {
		l.mu.Unlock()
		s.mu.Lock()
		l.refs--
		if l.refs == 0 {
			delete(s.inflight, fingerprint)
		}
		s.mu.Unlock()
	}
}
