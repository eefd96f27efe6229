// Package bcsearch is the on-the-fly bytecode search engine: it greps the
// dexdump plaintext for invocation sites, object allocations, class
// literals, string constants and field accesses, and maps every hit back to
// its containing method (the paper's Fig. 3 steps 1-2).
//
// The engine is split into a caching front-end (Engine) and a pluggable
// Searcher backend. Two backends exist: the paper-faithful LinearScanner
// that greps every dump line per command, and the default IndexedSearcher
// that resolves commands from a one-pass inverted index in O(hits). Both
// answer every command identically (see DESIGN.md Sec. 3); only their cost
// profile differs.
//
// Every distinct search command and its results are cached (paper
// Sec. IV-F "search caching"); the cache hit rate statistic that the paper
// reports (avg 23.39% per app) is exposed via Stats.
package bcsearch

import (
	"backdroid/internal/dex"
	"backdroid/internal/dexdump"
	"backdroid/internal/simtime"
)

// Hit is one matching dump line together with its containing method — the
// "identify method in bytecode text" output.
type Hit struct {
	Line   int
	Text   string
	Method dex.MethodRef
}

// Stats counts search commands, cache hits and the work the backend did.
type Stats struct {
	Commands  int // total search commands issued
	CacheHits int // commands answered from the cache

	// Backend work accounting. LinesScanned counts dump lines visited by
	// full scans: every linear command, plus the indexed backend's raw
	// fallbacks. PostingsScanned counts inverted-index postings visited.
	// IndexBuilds is 0 or 1 (the index is built at most once per app) and
	// IndexLines is the dump size tokenized by that build.
	LinesScanned    int64
	PostingsScanned int64
	IndexBuilds     int
	IndexLines      int64

	// Sharded-index and persistent-cache accounting. ShardCount is the
	// shard count of the acquired index (1 for the single merged index, 0
	// until an index exists). MergedPostings counts postings streamed
	// through lazy cross-shard merges. IndexCacheHits/IndexCacheMisses
	// count persistent-cache probes: a hit replaces the tokenization pass
	// entirely, a miss (missing, truncated, stale or version-bumped file)
	// falls back to a charged build.
	ShardCount       int
	MergedPostings   int64
	IndexCacheHits   int
	IndexCacheMisses int
}

// Rate returns the cache hit rate in [0,1].
func (s Stats) Rate() float64 {
	if s.Commands == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(s.Commands)
}

// Config configures a search engine.
type Config struct {
	// Meter is charged for the work performed; nil gets a fresh unlimited
	// meter.
	Meter *simtime.Meter
	// Backend selects the search implementation; the zero value is
	// BackendIndexed.
	Backend BackendKind
	// EnableCache turns on the Sec. IV-F command cache.
	EnableCache bool

	// Plan lays out the shards of BackendSharded — typically one shard
	// per classesN.dex of the app. Nil with BackendSharded falls back to
	// DefaultShards package-prefix shards. Ignored by other backends.
	Plan *dexdump.ShardPlan
	// BuildWorkers bounds how many shards are tokenized concurrently
	// during a sharded build; <= 1 builds sequentially. Affects wall
	// clock only — charged work and results are identical for any value.
	BuildWorkers int
	// CachePath, when non-empty, enables the persistent bundle cache: the
	// built index (and the dump text) is serialized there and later
	// engines over the same dump load it instead of re-tokenizing.
	// Invalid files (corrupt, stale, old version) are rebuilt and
	// overwritten silently.
	CachePath string
	// AppFingerprint identifies the app the dump was rendered from (see
	// dexdump.AppFingerprint); it is stored in written bundles so a later
	// engine can validate the cached dump without disassembling. 0 marks
	// it unknown — the bundle is still written, but its dump section will
	// never validate on probe.
	AppFingerprint uint64
	// BundleBytes, when non-empty, is the already-read content of the
	// CachePath bundle: the engine reads the file once for its dump probe
	// and hands the bytes down, so the index section decodes from memory
	// instead of a second disk read. Writes still go to CachePath.
	BundleBytes []byte
	// RefreshBundle forces a bundle rewrite even when the index section
	// loads from the cache. The engine sets it after its dump probe missed
	// on an otherwise valid file (a damaged dump section), so the file
	// self-heals and the next run skips disassembly.
	RefreshBundle bool
	// StoreBundle, when non-nil, receives the encoded bundle bytes as soon
	// as the index is acquired: the freshly encoded bundle after a build or
	// a refresh, or the validated on-disk file content on a persistent
	// cache hit. The batch service's in-memory bundle store captures
	// entries through this seam without a second encode.
	StoreBundle func(data []byte)

	// DeltaBuild switches the index-build charge to the delta model: the
	// engine proved (by shard-manifest diff against the previous version's
	// bundle) that only DeltaIndexLines dump lines belong to changed or
	// added classes, so a build tokenizes those at the full index-build
	// rate and carries the remaining DeltaReuseIndexLines over at the
	// cheap delta-reuse rate. The real build still tokenizes everything —
	// the resulting index is bitwise identical to a cold build — only the
	// charged cost models the reuse, exactly like the sharded build
	// charging its critical path. Ignored on index-cache hits (those are
	// already cheaper than a delta build).
	DeltaBuild           bool
	DeltaIndexLines      int
	DeltaReuseIndexLines int
}

// Engine searches one app's dump text: it owns the command cache and
// statistics and delegates cache misses to its backend. Engines are
// per-app, single-goroutine objects; the parallel corpus pipeline creates
// one per worker.
type Engine struct {
	text    *dexdump.Text
	meter   *simtime.Meter
	backend Searcher

	cacheEnabled bool
	cache        map[string][]Hit
	stats        Stats
	observer     func(cmd Command, hits []Hit)
}

// SetObserver installs a hook that sees every successfully resolved
// command with its hits — cache hits included, so an observer recording
// which searches an analysis issued misses nothing. The core engine's
// delta path uses it to record each sink's search-command footprint; nil
// removes it.
func (e *Engine) SetObserver(fn func(cmd Command, hits []Hit)) { e.observer = fn }

// NewEngine builds a search engine over the dump with the given
// configuration.
func NewEngine(text *dexdump.Text, cfg Config) *Engine {
	if cfg.Meter == nil {
		cfg.Meter = simtime.NewMeter()
	}
	return &Engine{
		text:         text,
		meter:        cfg.Meter,
		backend:      NewSearcher(text, cfg),
		cacheEnabled: cfg.EnableCache,
		cache:        make(map[string][]Hit),
	}
}

// New builds a search engine with the default (indexed) backend. The meter
// is charged for every line or posting visited; cache hits charge a single
// unit.
func New(text *dexdump.Text, meter *simtime.Meter, enableCache bool) *Engine {
	return NewEngine(text, Config{Meter: meter, EnableCache: enableCache})
}

// Stats returns the cache and work statistics so far.
func (e *Engine) Stats() Stats { return e.stats }

// Backend returns the kind of the active backend.
func (e *Engine) Backend() BackendKind { return e.backend.Kind() }

// Run executes one search command: answered from the cache when possible
// (charging a single unit), otherwise delegated to the backend. The
// command key string is the cache key (Sec. IV-F).
func (e *Engine) Run(cmd Command) ([]Hit, error) {
	// Cooperative cancellation: once the meter has latched a cancel, no
	// further lookup starts — a canceled analysis must not keep resolving
	// commands from the cache (cache hits charge a single unit, far below
	// the checkpoint interval).
	if e.meter.Canceled() {
		return nil, simtime.ErrCanceled
	}
	e.stats.Commands++
	key := cmd.Key()
	if e.cacheEnabled {
		if hits, ok := e.cache[key]; ok {
			e.stats.CacheHits++
			if err := e.meter.Charge(1); err != nil {
				return nil, err
			}
			if e.observer != nil {
				e.observer(cmd, hits)
			}
			return hits, nil
		}
	}
	hits, cost, err := e.backend.Run(cmd)
	e.stats.LinesScanned += cost.Lines
	e.stats.PostingsScanned += cost.Postings
	e.stats.MergedPostings += cost.Merged
	if cost.IndexBuilt {
		e.stats.IndexBuilds++
		e.stats.IndexLines += int64(e.text.LineCount())
	}
	if cost.IndexLoaded {
		e.stats.IndexCacheHits++
	}
	if cost.IndexCacheMiss {
		e.stats.IndexCacheMisses++
	}
	if cost.Shards > 0 {
		e.stats.ShardCount = cost.Shards
	}
	if err != nil {
		return nil, err
	}
	if e.cacheEnabled {
		e.cache[key] = hits
	}
	if e.observer != nil {
		e.observer(cmd, hits)
	}
	return hits, nil
}

// Search scans for a raw substring across all dump lines. Raw patterns
// cannot be indexed, so this is a full scan on either backend.
func (e *Engine) Search(pattern string) ([]Hit, error) {
	return e.Run(RawCommand(pattern))
}

// FindInvocations locates all call sites of the method with the given
// dexdump signature (e.g. "Lcom/a/B;.start:()V"). This is the basic
// signature based search of Sec. IV-A.
func (e *Engine) FindInvocations(ref dex.MethodRef) ([]Hit, error) {
	return e.Run(InvokeCommand(ref))
}

// FindConstructorCalls locates the invoke-direct sites of all constructors
// of the class — the entry step of the advanced search (Sec. IV-B).
func (e *Engine) FindConstructorCalls(class string) ([]Hit, error) {
	return e.Run(CtorCommand(class))
}

// FindNewInstance locates new-instance allocations of the class.
func (e *Engine) FindNewInstance(class string) ([]Hit, error) {
	return e.Run(NewInstanceCommand(class))
}

// FindConstClass locates const-class literals of the class — one half of
// the two-time ICC search (Sec. IV-D, explicit intents).
func (e *Engine) FindConstClass(class string) ([]Hit, error) {
	return e.Run(ConstClassCommand(class))
}

// FindConstString locates const-string literals with the exact value — the
// other half of the ICC search (implicit intent actions).
func (e *Engine) FindConstString(value string) ([]Hit, error) {
	return e.Run(ConstStringCommand(value))
}

// FieldAccessKind selects which accesses FindFieldAccesses returns.
type FieldAccessKind int

// Field access kinds.
const (
	FieldReads FieldAccessKind = iota + 1
	FieldWrites
	FieldAny
)

// FindFieldAccesses locates accesses of the field with the given dexdump
// signature. BackDroid uses the write search to find methods that assign a
// tainted static field (Sec. V-A) instead of analyzing every contained
// method.
func (e *Engine) FindFieldAccesses(ref dex.FieldRef, kind FieldAccessKind) ([]Hit, error) {
	return e.Run(FieldAccessCommand(ref, kind))
}

// FindClassUses locates every line that references the class descriptor at
// all — invocations of its methods, field accesses, allocations, literals.
// The recursive <clinit> reachability search (Sec. IV-C) is built on this.
func (e *Engine) FindClassUses(class string) ([]Hit, error) {
	return e.Run(ClassUseCommand(class))
}

// FindInvocationsOfName locates call sites by method name and descriptor
// regardless of declaring class (".name:desc" suffix match). The optional
// class-hierarchy-aware initial sink search uses it to catch sink APIs
// invoked through app subclasses of system classes — the paper's fix for
// its two false negatives.
func (e *Engine) FindInvocationsOfName(name string, descriptor string) ([]Hit, error) {
	return e.Run(InvokeNameCommand(name, descriptor))
}

// FindInvocationsOfNamePrefix locates call sites by method name alone
// (".name:" match), regardless of declaring class and descriptor. The
// two-time ICC search's first pass (Sec. IV-D) uses it to collect the
// startActivity/startService/sendBroadcast call sites; unlike the raw
// substring search it replaced, it resolves from postings on the indexed
// backends.
func (e *Engine) FindInvocationsOfNamePrefix(name string) ([]Hit, error) {
	return e.Run(InvokeNamePrefixCommand(name))
}

// CallersOf deduplicates the containing methods of a set of hits,
// preserving dump order.
func CallersOf(hits []Hit) []dex.MethodRef {
	seen := make(map[string]bool, len(hits))
	var out []dex.MethodRef
	for _, h := range hits {
		if h.Method.Name == "" {
			continue
		}
		key := h.Method.SootSignature()
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, h.Method)
	}
	return out
}
