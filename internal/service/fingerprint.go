// OptionsFingerprint: the engine-configuration half of the settled-result
// tier's content address. A settled report is keyed by
// (dexdump.AppFingerprint, OptionsFingerprint); the pair may be answered
// from the store only if re-running the engine would reproduce the stored
// report bit for bit. The app fingerprint pins the input bytes; this
// fingerprint pins every core.Options field that can move a verdict, a
// value string, a sink ordering or the TimedOut flag.
//
// Every field of core.Options is classified exactly one way (the
// compile-guard test fails the build of a field the table does not
// know):
//
//   - ClassHashed: the field selects what is analyzed or how deep
//     (Sinks, MaxDepth, TimeoutMinutes, ...) or switches an engine
//     mechanism we pin conservatively even where parity tests hold
//     (SearchBackend, caches).
//     Two options differing here hash differently — no cross-config
//     reuse, only a missed optimization when the configs were in fact
//     equivalent.
//
//   - ClassNeutral: the field moves work between cache layers or wires
//     control-plane callbacks and provably cannot change the report:
//     the warm-start seams (IndexCacheDir, Bundles) are pinned
//     bitwise-identical by the CI parity matrix; the Checkpoint,
//     SinkObserver and PhaseSpan hooks only abort or observe;
//     DeltaFrom's incremental reuse is pinned bitwise-identical to a
//     cold run by the five delta guards and the BENCH_delta gate, and
//     the scheduler keys settled lookups before injecting a delta base,
//     so the stored report of a delta run is addressed exactly like its
//     cold equivalent; ChunkRange/SinkProgress only window and observe
//     the canonical sink list — the chunk-merge parity tests pin
//     MergeReports of any chunking bitwise-identical to the single-pass
//     report, so a chunked job settles under the same key.
package service

import (
	"encoding/binary"
	"hash/fnv"
	"math"

	"backdroid/internal/core"
)

// FingerprintClass says how OptionsFingerprint treats one core.Options
// field.
type FingerprintClass int

// Field classes.
const (
	// classHashed fields feed the fingerprint: any change produces a
	// different settled-store key.
	ClassHashed FingerprintClass = iota + 1
	// classNeutral fields are excluded: two options differing only here
	// share a key, because the engine output is pinned identical across
	// their values.
	ClassNeutral
)

// OptionsFingerprintFields is the exhaustive classification of
// core.Options fields. The compile-guard test walks core.Options by
// reflection and fails when a field is missing here (or listed here but
// gone from the struct), so the struct cannot grow a verdict-relevant
// field that silently aliases settled-store keys.
var OptionsFingerprintFields = map[string]FingerprintClass{
	"Sinks":                 ClassHashed,
	"EnableSearchCache":     ClassHashed,
	"SearchBackend":         ClassHashed,
	"EnableSinkCache":       ClassHashed,
	"EnableLoopDetection":   ClassHashed,
	"ResolveSinkSubclasses": ClassHashed,
	"AnalyzeAllContained":   ClassHashed,
	"MaxDepth":              ClassHashed,
	"TimeoutMinutes":        ClassHashed,

	"IndexCacheDir": ClassNeutral,
	"Bundles":       ClassNeutral,
	"Checkpoint":    ClassNeutral,
	"SinkObserver":  ClassNeutral,
	"DeltaFrom":     ClassNeutral,
	"ChunkRange":    ClassNeutral,
	"SinkProgress":  ClassNeutral,
	// The preprocessing handle only spares a run work whose result and
	// charge are a cold run's: core's TestSharedChunkMatchesColdChunk
	// pins the report bytes and Stats identical with and without it.
	"Shared": ClassNeutral,
	// Observability hooks only watch charged-unit boundaries the engine
	// reaches anyway; they never charge and never touch a verdict — the
	// trace-parity test pins a traced run's report bitwise-identical to
	// an untraced one.
	"PhaseSpan": ClassNeutral,
}

// OptionsFingerprint canonically hashes the verdict-relevant fields of
// the options (FNV-64a over a tagged, length-prefixed rendering). The
// hash is stable across processes — it feeds journaled settled-report
// keys that must survive a restart — so it uses only field values, never
// pointers or map iteration.
func OptionsFingerprint(o *core.Options) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	str := func(s string) {
		u64(uint64(len(s)))
		h.Write([]byte(s))
	}
	b := func(v bool) {
		if v {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
	}

	// The tag names the engine semantics a settled report was computed
	// under; v2 caps abstract strings at constprop.MaxValueBytes.
	str("backdroid-options-v2")
	u64(uint64(len(o.Sinks)))
	for _, s := range o.Sinks {
		// Order matters: sink order is report order.
		str(s.Method.SootSignature())
		u64(uint64(s.ParamIndex))
		u64(uint64(s.Rule))
	}
	b(o.EnableSearchCache)
	u64(uint64(o.SearchBackend))
	// Retired fields keep their slots, hashed at the only value the
	// engine still runs with, so that every settled-report key written
	// before they were removed stays valid: the index shard count (0)
	// here, the forward-pass memo (on) and the per-app SSG (off) below.
	u64(0)
	b(true)
	b(o.EnableSinkCache)
	b(o.EnableLoopDetection)
	b(o.ResolveSinkSubclasses)
	b(o.AnalyzeAllContained)
	b(false)
	u64(uint64(int64(o.MaxDepth)))
	u64(math.Float64bits(o.TimeoutMinutes))
	return h.Sum64()
}
