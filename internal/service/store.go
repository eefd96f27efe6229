// Package service is the long-running batch analysis layer on top of the
// BackDroid engine: a Scheduler with a bounded job queue and streaming
// per-sink events, backed by an in-memory content-addressed BundleStore so
// re-analyses of a known app fingerprint perform zero disassembly, zero
// index builds and zero disk I/O. experiments.RunCorpus is a thin client
// of this package; cmd/backdroidd exposes it as a service process.
package service

import "sync"

// BundleStore is an in-memory content-addressed cache of encoded .bdx
// bundles (dump + index sections), keyed by app fingerprint
// (dexdump.AppFingerprint). Because the key is a content hash of the
// app's bytecode, an entry is immutable for the lifetime of the store: a
// Put for a present fingerprint is a refresh, never a replacement.
// Eviction is LRU under a configurable byte budget (see lru); its
// counters surface through the scheduler's metrics registry.
//
// A BundleStore is safe for concurrent use and implements
// core.BundleCache, so it plugs straight into core.Options.Bundles.
type BundleStore struct {
	mu  sync.Mutex
	lru lru[uint64, []byte]

	// inflight serializes bundle construction per fingerprint (see
	// LockFingerprint).
	inflight map[uint64]*fpLock
}

type fpLock struct {
	mu   sync.Mutex
	refs int
}

// NewBundleStore builds a store with the given byte budget; budgetBytes
// <= 0 means unlimited.
func NewBundleStore(budgetBytes int64) *BundleStore {
	return &BundleStore{lru: newLRU[uint64, []byte](budgetBytes), inflight: make(map[uint64]*fpLock)}
}

// GetBundle returns the bundle bytes for the fingerprint and marks the
// entry most recently used. The returned slice is shared and must be
// treated as read-only (every consumer of .bdx bytes already does).
func (s *BundleStore) GetBundle(fingerprint uint64) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lru.get(fingerprint)
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
	s.lru.put(fingerprint, data, int64(len(data)))
}

// DropBundle removes the entry for the fingerprint, if any. The engine
// calls it when a stored bundle fails validation, so a damaged entry is
// rebuilt instead of pinned: without the drop, PutBundle would treat the
// fingerprint as present and keep the bad bytes forever.
func (s *BundleStore) DropBundle(fingerprint uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lru.drop(fingerprint)
}

// Contains reports whether the fingerprint is cached, without touching
// recency or the hit/miss counters — the scheduler's pre-probe for the
// single-build fast path.
func (s *BundleStore) Contains(fingerprint uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.lru.peek(fingerprint)
	return ok
}

// stats returns the current counters.
func (s *BundleStore) stats() lruStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lru.snapshot()
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
