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
	IndexLoaded    bool  // the index came from a warm-start bundle instead
	IndexCacheMiss bool  // a bundle probe failed (missing/stale/corrupt section)
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
	return &IndexedSearcher{text: text, meter: cfg.Meter, index: cfg.Index}
}

// collect verifies candidate lines against the command predicate and
// attributes each hit to its containing method.
func collect(text *dexdump.Text, cmd Command, candidates []int32) []Hit {
	var hits []Hit
	for _, n := range candidates {
		line := text.Line(int(n))
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

// Run greps every dump line, charging the meter for the full pass. The
// charge lands before the scan so an exhausted budget kills the command
// without producing hits.
func (s *LinearScanner) Run(cmd Command) ([]Hit, Cost, error) {
	text := s.text
	cost := Cost{Lines: int64(text.LineCount())}
	if err := s.meter.ChargeLines(text.LineCount()); err != nil {
		return nil, cost, err
	}
	var hits []Hit
	for i := range text.LineCount() {
		line := text.Line(i)
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
// O(lines). The index is acquired lazily on the first command — from the
// Config.Index hook when one is set, otherwise built and charged to the
// meter then — so apps that are never searched pay nothing.
//
// An IndexedSearcher is not safe for concurrent use — like the Engine on
// top of it, it is a per-app object (the corpus pipeline gives every
// worker its own engine).
type IndexedSearcher struct {
	text  *dexdump.Text
	meter *simtime.Meter
	index func() (*dexdump.Index, Cost, error) // Config.Index; nil builds
	src   *dexdump.Index
}

// Kind identifies the backend.
func (s *IndexedSearcher) Kind() BackendKind { return BackendIndexed }

// Run resolves the command from the index, acquiring it first if needed.
func (s *IndexedSearcher) Run(cmd Command) ([]Hit, Cost, error) {
	var cost Cost
	if s.src == nil {
		src, c, err := s.acquire()
		if err != nil {
			return nil, c, err
		}
		s.src, cost = src, c
	}
	candidates := LookupCandidates(s.src, cmd)
	cost.Postings = int64(len(candidates))
	if err := s.meter.ChargePostings(len(candidates)); err != nil {
		return nil, cost, err
	}
	return collect(s.text, cmd, candidates), cost, nil
}

// acquire obtains the postings source from the hook, or builds it: one
// tokenization pass, charged like the linear scan it is (plus a
// tokenization factor — see simtime.IndexBuildLinesPerUnit).
func (s *IndexedSearcher) acquire() (*dexdump.Index, Cost, error) {
	if s.index != nil {
		return s.index()
	}
	if err := s.meter.ChargeIndexBuild(s.text.LineCount()); err != nil {
		return nil, Cost{}, err
	}
	return dexdump.BuildIndex(s.text), Cost{IndexBuilt: true}, nil
}

// LookupCandidates maps a command to its candidate postings in the given
// index — the single lookup shared by the indexed backend and the core
// engine's delta replay probe (which resolves a prior run's recorded
// commands against a partial index over just the changed classes).
// Candidates over-approximate; callers verify each line against
// cmd.Match.
func LookupCandidates(src *dexdump.Index, cmd Command) []int32 {
	switch cmd.Kind {
	case CmdInvoke:
		return src.InvokeBySig(cmd.Arg)
	case CmdCtor:
		return src.CtorByPrefix(cmd.Arg)
	case CmdConstClass:
		return src.ConstClass(cmd.Arg)
	case CmdConstString:
		return src.ConstString(cmd.Arg)
	case CmdFieldAccess:
		return src.FieldBySig(cmd.Arg)
	case CmdClassUse:
		return src.ClassUse(cmd.Arg)
	case CmdInvokeNamePrefix:
		return src.InvokeByNamePrefix(cmd.Arg)
	}
	return nil
}
