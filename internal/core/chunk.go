// Sink-chunk partitioning: the resumable per-sink entry point of the
// fleet's work stealing (DESIGN.md Sec. 13). A job's located sink call
// sites form a canonical list — sorted by (dump line, unit index), the
// order locateSinkCalls always produces — and a ChunkRange restricts one
// engine run to a half-open window of that list. Each chunk loads the
// job's bundle when one is stored, and otherwise takes the dump and index
// the job's first run left in Options.Shared; either way it is charged
// its own preprocessing and sink location, like any run. It emits a
// partial Report covering exactly its window, and MergeReports unions
// the parts back into a report whose canonical encoding is bitwise
// identical to the single-pass run for every chunking.
//
// The merge is deterministic by construction: parts are ordered by their
// first sink's canonical position, sinks are deduplicated by call-site
// identity (overlap tolerance — a victim that finished a sink just as it
// was stolen contributes the same SinkReport bytes the thief recomputes),
// and Stats are summed field-wise, so the merged report accounts for all
// charged work across the chunks.
package core

import (
	"sort"

	"backdroid/internal/simtime"
)

// ChunkRange restricts an engine run to the canonical positions
// [From, To) of the app's located sink-call list. Out-of-range bounds are
// clamped. A run with a ChunkRange never uses Options.DeltaFrom: a
// partial report must not depend on a delta base the other chunks lack.
type ChunkRange struct {
	From int
	To   int
}

// MergeReports unions per-chunk partial reports into the canonical
// single-pass report. Parts may arrive in any order and may overlap (a
// sink completed by both the victim and a thief dedups to one entry);
// nil parts are skipped. App and Registered come from the first non-nil
// part (every chunk of one job runs the same app), TimedOut ORs, Sinks
// concatenate in canonical order, and Stats sum — WorkUnits is the total
// charged across every chunk, with SimMinutes recomputed from it.
func MergeReports(parts ...*Report) *Report {
	ordered := make([]*Report, 0, len(parts))
	for _, p := range parts {
		if p != nil {
			ordered = append(ordered, p)
		}
	}
	// Chunks are windows of one sorted list, so ordering parts by their
	// first sink's canonical position and concatenating reproduces the
	// single-pass sink order exactly — no re-sort of individual sinks,
	// and ties within a part keep the order the engine emitted.
	sort.SliceStable(ordered, func(i, j int) bool {
		a, b := ordered[i].Sinks, ordered[j].Sinks
		if len(a) == 0 || len(b) == 0 {
			return len(a) == 0 && len(b) != 0
		}
		if a[0].Call.Line != b[0].Call.Line {
			return a[0].Call.Line < b[0].Call.Line
		}
		return a[0].Call.UnitIndex < b[0].Call.UnitIndex
	})

	merged := &Report{}
	seen := make(map[string]bool)
	first := true
	for _, p := range ordered {
		if first {
			merged.App = p.App
			merged.Registered = append([]string(nil), p.Registered...)
			first = false
		}
		merged.TimedOut = merged.TimedOut || p.TimedOut
		for _, s := range p.Sinks {
			k := sinkKey(s.Call)
			if seen[k] {
				continue
			}
			seen[k] = true
			merged.Sinks = append(merged.Sinks, s)
		}
		addStats(&merged.Stats, &p.Stats)
	}
	merged.Stats.SimMinutes = simtime.UnitsToMinutes(merged.Stats.WorkUnits)
	return merged
}

// addStats folds one chunk's Stats into the merge: counters sum and the
// loop map unions by summing.
func addStats(dst, src *Stats) {
	dst.Search.Commands += src.Search.Commands
	dst.Search.CacheHits += src.Search.CacheHits
	dst.Search.LinesScanned += src.Search.LinesScanned
	dst.Search.PostingsScanned += src.Search.PostingsScanned
	dst.Search.IndexBuilds += src.Search.IndexBuilds
	dst.Search.IndexLines += src.Search.IndexLines
	dst.Search.IndexCacheHits += src.Search.IndexCacheHits
	dst.Search.IndexCacheMisses += src.Search.IndexCacheMisses

	dst.SinkCallsTotal += src.SinkCallsTotal
	dst.SinkCallsCached += src.SinkCallsCached
	if len(src.Loops) > 0 && dst.Loops == nil {
		dst.Loops = make(map[LoopKind]int, len(src.Loops))
	}
	for k, v := range src.Loops {
		dst.Loops[k] += v
	}
	dst.MethodsAnalyzed += src.MethodsAnalyzed
	dst.WorkUnits += src.WorkUnits
	dst.WallTime += src.WallTime
	dst.DumpCacheHits += src.DumpCacheHits
	dst.DumpCacheMisses += src.DumpCacheMisses
	dst.DumpCacheUnits += src.DumpCacheUnits
	dst.DumpLinesDisassembled += src.DumpLinesDisassembled
	dst.BundleStoreHits += src.BundleStoreHits
	dst.BundleStoreMisses += src.BundleStoreMisses
	dst.SettledLookups += src.SettledLookups
	dst.CancelPolls += src.CancelPolls
	dst.SinksReused += src.SinksReused
	dst.SinksRerun += src.SinksRerun
	dst.DeltaReusedLines += src.DeltaReusedLines
}
