package service

import (
	"container/list"

	"backdroid/internal/obs"
)

// lru is the byte-budget least-recently-used map both content-addressed
// stores are built on. Keys are content hashes, so an entry never
// changes: a put for a present key only refreshes its recency. An entry
// larger than the whole budget is not admitted, because admitting it
// would evict the entire working set for one key. An lru is not safe
// for concurrent use; each store guards its own with a mutex.
type lru[K comparable, V any] struct {
	budget  int64 // bytes; <= 0 means unlimited
	bytes   int64
	order   *list.List // front = most recently used; values are *lruEntry[K, V]
	entries map[K]*list.Element
	stats   lruStats
}

type lruEntry[K comparable, V any] struct {
	key  K
	val  V
	size int64
}

// lruStats are an lru's counters. Entries and Bytes are filled in when
// they are read.
type lruStats struct {
	Entries   int   // live entries
	Bytes     int64 // bytes held by live entries
	Hits      int64 // get probes that found an entry
	Misses    int64 // get probes that did not
	Puts      int64 // puts that inserted a new entry
	Refreshes int64 // puts for an already-present key
	Evictions int64 // entries dropped to satisfy the byte budget
	Drops     int64 // entries removed by drop
}

func newLRU[K comparable, V any](budget int64) lru[K, V] {
	return lru[K, V]{budget: budget, order: list.New(), entries: make(map[K]*list.Element)}
}

// get returns the value for k, marks it most recently used and counts
// the probe as a hit or a miss.
func (c *lru[K, V]) get(k K) (V, bool) {
	el, ok := c.entries[k]
	if !ok {
		c.stats.Misses++
		var zero V
		return zero, false
	}
	c.stats.Hits++
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry[K, V]).val, true
}

// peek returns the value for k without touching recency or counters.
func (c *lru[K, V]) peek(k K) (V, bool) {
	el, ok := c.entries[k]
	if !ok {
		var zero V
		return zero, false
	}
	return el.Value.(*lruEntry[K, V]).val, true
}

// put inserts v under k and counts the insert. A present key is only
// refreshed. It reports whether a new entry was inserted.
func (c *lru[K, V]) put(k K, v V, size int64) bool {
	if el, ok := c.entries[k]; ok {
		c.stats.Refreshes++
		c.order.MoveToFront(el)
		return false
	}
	if !c.admit(k, v, size) {
		return false
	}
	c.stats.Puts++
	return true
}

// admit inserts v under an absent key k at the front, evicting from the
// back until the byte budget holds. It counts no put, so a caller that
// repopulates the cache can count the entry as it sees fit. It reports
// false, admitting nothing, for an entry larger than the whole budget.
func (c *lru[K, V]) admit(k K, v V, size int64) bool {
	if c.budget > 0 && size > c.budget {
		return false
	}
	c.entries[k] = c.order.PushFront(&lruEntry[K, V]{key: k, val: v, size: size})
	c.bytes += size
	for c.budget > 0 && c.bytes > c.budget {
		c.remove(c.order.Back())
		c.stats.Evictions++
	}
	return true
}

// drop removes the entry for k, if any.
func (c *lru[K, V]) drop(k K) {
	if el, ok := c.entries[k]; ok {
		c.remove(el)
		c.stats.Drops++
	}
}

func (c *lru[K, V]) remove(el *list.Element) {
	ent := c.order.Remove(el).(*lruEntry[K, V])
	delete(c.entries, ent.key)
	c.bytes -= ent.size
}

// snapshot returns the counters with the live entry and byte counts.
func (c *lru[K, V]) snapshot() lruStats {
	st := c.stats
	st.Entries = c.order.Len()
	st.Bytes = c.bytes
	return st
}

// emit renders the counters as registry series under a prefix. Drops
// are emitted only where the store can drop an entry.
func (st lruStats) emit(g *obs.Gather, prefix string, drops bool) {
	g.Gauge(prefix+"_entries", int64(st.Entries))
	g.Gauge(prefix+"_bytes", st.Bytes)
	g.Counter(prefix+"_hits_total", st.Hits)
	g.Counter(prefix+"_misses_total", st.Misses)
	g.Counter(prefix+"_puts_total", st.Puts)
	g.Counter(prefix+"_refreshes_total", st.Refreshes)
	g.Counter(prefix+"_evictions_total", st.Evictions)
	if drops {
		g.Counter(prefix+"_drops_total", st.Drops)
	}
}
