package dexdump

import (
	"hash/fnv"
	"strings"
)

// ShardPlan assigns every class block of a dump to one index shard. Shards
// are the unit of parallel index construction and of cache-friendly
// postings for huge apps: modern apps ship many classesN.dex files, so the
// natural plan gives each source dex its own shard, and single-dex dumps
// fall back to deterministic package-prefix shards. Class spans are atomic
// — a class never straddles shards — so per-shard postings stay ascending
// and lazy lookup merges are linear.
type ShardPlan struct {
	// Kind names the plan flavor for reports: "per-dex", "package" or
	// "single".
	Kind string

	shards     int
	assign     []int // span index -> shard
	shardLines []int // dump lines tokenized per shard
}

// Shards returns the shard count of the plan (at least 1).
func (p *ShardPlan) Shards() int { return p.shards }

// ShardLines returns the dump lines each shard tokenizes. The slice must
// not be modified.
func (p *ShardPlan) ShardLines() []int { return p.shardLines }

// MaxShardLines returns the largest per-shard line count — the critical
// path of a fully parallel shard build, which is what the simulated-time
// model charges.
func (p *ShardPlan) MaxShardLines() int {
	max := 0
	for _, n := range p.shardLines {
		if n > max {
			max = n
		}
	}
	return max
}

func newPlan(t *Text, kind string, shards int, assign []int) *ShardPlan {
	if shards < 1 {
		shards = 1
	}
	p := &ShardPlan{Kind: kind, shards: shards, assign: assign, shardLines: make([]int, shards)}
	for i, sp := range t.spans {
		p.shardLines[assign[i]] += sp.End - sp.Start
	}
	return p
}

// SingleShardPlan places every class in one shard — the plan whose
// sharded build is the unsharded index (BuildIndex).
func SingleShardPlan(t *Text) *ShardPlan {
	return newPlan(t, "single", 1, make([]int, len(t.spans)))
}

// PerDexPlan shards the dump along its classesN.dex provenance:
// classCounts[k] is the number of classes dex k contributed to the merged
// dump (multidex merge preserves class order, so each dex is a contiguous
// run of class spans). Counts that do not tile the dump fall back to a
// single shard rather than mis-attributing classes.
func PerDexPlan(t *Text, classCounts []int) *ShardPlan {
	total := 0
	for _, c := range classCounts {
		total += c
	}
	if len(classCounts) == 0 || total != len(t.spans) {
		return SingleShardPlan(t)
	}
	assign := make([]int, len(t.spans))
	span, shard := 0, 0
	for _, c := range classCounts {
		for i := 0; i < c; i++ {
			assign[span] = shard
			span++
		}
		shard++
	}
	return newPlan(t, "per-dex", len(classCounts), assign)
}

// PackagePrefixPlan shards the dump by hashing each class's leading
// package segments (e.g. "com.lge" of "com.lge.app1.Main") into the given
// number of shards. Classes of one sub-package land in the same shard, so
// postings for package-local queries stay shard-local. The hash is FNV-1a
// — deterministic across runs and machines.
func PackagePrefixPlan(t *Text, shards int) *ShardPlan {
	if shards < 1 {
		shards = 1
	}
	assign := make([]int, len(t.spans))
	for i, sp := range t.spans {
		h := fnv.New32a()
		h.Write([]byte(packagePrefix(sp.Name)))
		assign[i] = int(h.Sum32() % uint32(shards))
	}
	return newPlan(t, "package", shards, assign)
}

// packagePrefix extracts the first two dotted segments of a class name.
func packagePrefix(name string) string {
	first := strings.IndexByte(name, '.')
	if first < 0 {
		return name
	}
	second := strings.IndexByte(name[first+1:], '.')
	if second < 0 {
		return name
	}
	return name[:first+1+second]
}
