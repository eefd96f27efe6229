package bcsearch

import (
	"fmt"
	"strings"

	"backdroid/internal/dexdump"
	"backdroid/internal/simtime"
)

// BackendKind selects the search backend implementation.
type BackendKind int

// Backends. BackendIndexed is the zero value so an unset knob gets the
// fast path; the linear scanner is kept for paper-faithful ablations.
const (
	BackendIndexed BackendKind = iota
	BackendLinear
)

// String names the backend as the CLI flags spell it.
func (k BackendKind) String() string {
	switch k {
	case BackendIndexed:
		return "indexed"
	case BackendLinear:
		return "linear"
	}
	return fmt.Sprintf("backend(%d)", int(k))
}

// ParseBackend parses a CLI backend name.
func ParseBackend(s string) (BackendKind, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "indexed", "index":
		return BackendIndexed, nil
	case "linear", "scan":
		return BackendLinear, nil
	}
	return BackendIndexed, fmt.Errorf("bcsearch: unknown backend %q (want indexed or linear)", s)
}

// Cost is the work one command execution performed, for the Stats
// accounting. Meter charging happens inside the backend (so timeouts abort
// a command exactly as the paper's budget regime demands); Cost lets the
// Engine report the same quantities without double charging.
type Cost struct {
	Lines          int64 // dump lines visited by a full scan
	Postings       int64 // index postings visited
	IndexBuilt     bool  // this command triggered the one-time index build
	IndexLoaded    bool  // the index came from the persistent cache instead
	IndexCacheMiss bool  // a cache probe failed (missing/stale/corrupt file)
}

// Searcher executes one uncached search command over the dump text. The
// caching front-end (Engine) sits on top of a Searcher, so backends only
// see cache misses.
type Searcher interface {
	Kind() BackendKind
	Run(cmd Command) ([]Hit, Cost, error)
}

// NewSearcher constructs the backend the config selects.
func NewSearcher(text *dexdump.Text, cfg Config) Searcher {
	if cfg.Backend == BackendLinear {
		return NewLinearScanner(text, cfg.Meter)
	}
	return &IndexedSearcher{
		text:            text,
		meter:           cfg.Meter,
		manifest:        cfg.Manifest,
		cachePath:       cfg.CachePath,
		bundleBytes:     cfg.BundleBytes,
		fingerprint:     cfg.AppFingerprint,
		refreshBundle:   cfg.RefreshBundle,
		storeBundle:     cfg.StoreBundle,
		deltaBuild:      cfg.DeltaBuild,
		deltaLines:      cfg.DeltaIndexLines,
		deltaReuseLines: cfg.DeltaReuseIndexLines,
	}
}

// collect verifies candidate lines against the command predicate and
// attributes each hit to its containing method.
func collect(text *dexdump.Text, cmd Command, candidates []int32) []Hit {
	lines := text.Lines()
	var hits []Hit
	for _, n := range candidates {
		line := lines[n]
		if !cmd.Match(line) {
			continue
		}
		h := Hit{Line: int(n), Text: line}
		if m, ok := text.MethodAt(int(n)); ok {
			h.Method = m
		}
		hits = append(hits, h)
	}
	return hits
}

// LinearScanner is the paper-faithful backend: every command is a full
// O(lines) grep over the dump text (Fig. 3 steps 1-2). Kept for ablations
// against the indexed backend.
type LinearScanner struct {
	text  *dexdump.Text
	meter *simtime.Meter
}

// NewLinearScanner builds the linear backend.
func NewLinearScanner(text *dexdump.Text, meter *simtime.Meter) *LinearScanner {
	return &LinearScanner{text: text, meter: meter}
}

// Kind identifies the backend.
func (s *LinearScanner) Kind() BackendKind { return BackendLinear }

// Run scans every dump line, charging the meter for the full pass.
func (s *LinearScanner) Run(cmd Command) ([]Hit, Cost, error) {
	return scanAll(s.text, s.meter, cmd)
}

// scanAll is the shared full-scan path (also the indexed backend's raw
// fallback). The charge lands before the scan so an exhausted budget kills
// the command without producing hits, exactly as before the refactor.
func scanAll(text *dexdump.Text, meter *simtime.Meter, cmd Command) ([]Hit, Cost, error) {
	cost := Cost{Lines: int64(text.LineCount())}
	if err := meter.ChargeLines(text.LineCount()); err != nil {
		return nil, cost, err
	}
	lines := text.Lines()
	var hits []Hit
	for i, line := range lines {
		if !cmd.Match(line) {
			continue
		}
		h := Hit{Line: i, Text: line}
		if m, ok := text.MethodAt(i); ok {
			h.Method = m
		}
		hits = append(hits, h)
	}
	return hits, cost, nil
}

// IndexedSearcher resolves commands from an inverted index over the dump
// text: each command touches only its postings list, O(hits) instead of
// O(lines). The index is acquired lazily on the first indexable command —
// loaded from the persistent cache when one is configured and valid,
// otherwise built and charged to the meter then, so apps that are never
// searched pay nothing. Raw substring commands cannot be indexed and fall
// back to a full scan.
//
// An IndexedSearcher is not safe for concurrent use — like the Engine on
// top of it, it is a per-app object (the corpus pipeline gives every
// worker its own engine).
type IndexedSearcher struct {
	text  *dexdump.Text
	meter *simtime.Meter
	src   *dexdump.Index

	manifest        *dexdump.Manifest // the dump's manifest, when already built
	cachePath       string            // non-empty enables the persistent cache
	bundleBytes     []byte            // pre-read bundle content (avoids a second read)
	fingerprint     uint64            // app fingerprint stored in written bundles
	refreshBundle   bool              // rewrite the bundle even on an index cache hit
	storeBundle     func(data []byte) // in-memory bundle store capture seam
	deltaBuild      bool              // charge index builds at the delta model
	deltaLines      int               // dump lines of changed+added classes
	deltaReuseLines int               // dump lines of unchanged classes
}

// Kind identifies the backend.
func (s *IndexedSearcher) Kind() BackendKind { return BackendIndexed }

// Run resolves the command from the index, acquiring it first if needed.
func (s *IndexedSearcher) Run(cmd Command) ([]Hit, Cost, error) {
	if cmd.Kind == CmdRaw {
		return scanAll(s.text, s.meter, cmd)
	}
	var cost Cost
	if s.src == nil {
		if err := s.acquire(&cost); err != nil {
			return nil, cost, err
		}
	}
	candidates := LookupCandidates(s.src, cmd)
	cost.Postings = int64(len(candidates))
	if err := s.meter.ChargePostings(len(candidates)); err != nil {
		return nil, cost, err
	}
	return collect(s.text, cmd, candidates), cost, nil
}

// acquire obtains the postings source: persistent bundle first (any
// invalid index section — missing, truncated, stale hash, unknown
// version or layout — is a silent miss), then a charged build, written back
// to the bundle best-effort so the next analysis of the same dump starts
// warm. When the engine signalled that its dump probe missed
// (refreshBundle), an index cache hit still rewrites the file as a full
// bundle, self-healing a damaged dump section so the next run can skip
// disassembly too.
func (s *IndexedSearcher) acquire(cost *Cost) error {
	if s.cachePath != "" || len(s.bundleBytes) != 0 {
		if src, err := s.loadCachedIndex(); err == nil {
			// Deserialization is charged at the cheap cache-load rate;
			// no tokenization happens on this path.
			if err := s.meter.ChargeIndexCacheLoad(s.text.LineCount()); err != nil {
				return err
			}
			s.src = src
			cost.IndexLoaded = true
			if s.refreshBundle {
				s.publishBundle()
			} else if s.storeBundle != nil && len(s.bundleBytes) != 0 {
				// The bytes already hold a validated full bundle (the
				// engine's dump probe hit on them); share them as-is.
				s.storeBundle(s.bundleBytes)
			}
			return nil
		}
		cost.IndexCacheMiss = true
	}
	if err := s.chargeBuild(); err != nil {
		return err
	}
	s.src = dexdump.BuildIndex(s.text)
	cost.IndexBuilt = true
	s.publishBundle()
	return nil
}

// chargeBuild charges the meter for the one-time index build. Two models
// share this seam, both charging the same real work differently: the
// plain build tokenizes every dump line; the delta build
// (Config.DeltaBuild) tokenizes only the changed and added classes' lines
// at the build rate and carries the unchanged classes over at the
// delta-reuse rate — the previous version's bundle already tokenized
// them, and the manifest diff proved them identical. The built index is
// bitwise identical under both models; only the charged cost differs.
func (s *IndexedSearcher) chargeBuild() error {
	if s.deltaBuild {
		if err := s.meter.ChargeIndexBuild(s.deltaLines); err != nil {
			return err
		}
		return s.meter.ChargeDeltaReuse(s.deltaReuseLines)
	}
	// One-time tokenization pass, charged like the linear scan it is
	// (plus a tokenization factor — see simtime.IndexBuildLinesPerUnit).
	return s.meter.ChargeIndexBuild(s.text.LineCount())
}

// publishBundle encodes the current dump and index once and hands the
// bytes to every configured consumer: the persistent cache file and the
// in-memory store seam. Best-effort — a failed encode or write must never
// fail the analysis.
func (s *IndexedSearcher) publishBundle() {
	if s.cachePath == "" && s.storeBundle == nil {
		return
	}
	data, err := dexdump.EncodeBundle(s.text, s.src, s.fingerprint, s.manifest)
	if err != nil {
		return
	}
	if s.cachePath != "" {
		_ = dexdump.WriteBundleBytes(s.cachePath, data)
	}
	if s.storeBundle != nil {
		s.storeBundle(data)
	}
}

// loadCachedIndex decodes the bundle's index section — from the bytes the
// engine already read for its dump probe when available, from disk
// otherwise.
func (s *IndexedSearcher) loadCachedIndex() (*dexdump.Index, error) {
	if len(s.bundleBytes) != 0 {
		return dexdump.DecodeIndexFile(s.bundleBytes, s.text)
	}
	return dexdump.LoadIndexCache(s.cachePath, s.text)
}

// LookupCandidates maps a command to its candidate postings in the given
// index — the single lookup shared by the indexed backend and the core
// engine's delta replay probe (which resolves a prior run's recorded
// commands against a partial index over just the changed classes).
// Candidates over-approximate; callers verify each line against
// cmd.Match. CmdRaw has no postings and returns nil.
func LookupCandidates(src *dexdump.Index, cmd Command) []int32 {
	switch cmd.Kind {
	case CmdInvoke:
		return src.InvokeBySig(cmd.Arg)
	case CmdCtor:
		return src.CtorByPrefix(cmd.Arg)
	case CmdNewInstance:
		return src.NewInstance(cmd.Arg)
	case CmdConstClass:
		return src.ConstClass(cmd.Arg)
	case CmdConstString:
		return src.ConstString(cmd.Arg)
	case CmdFieldAccess:
		return src.FieldBySig(cmd.Arg)
	case CmdClassUse:
		return src.ClassUse(cmd.Arg)
	case CmdInvokeName:
		return src.InvokeByName(cmd.Arg)
	case CmdInvokeNamePrefix:
		return src.InvokeByNamePrefix(cmd.Arg)
	}
	return nil
}
