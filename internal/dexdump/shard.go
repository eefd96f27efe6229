package dexdump

import (
	"hash/fnv"
	"strings"

	"backdroid/internal/pool"
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

// SingleShardPlan places every class in one shard — the degenerate plan
// that makes the sharded machinery coincide with the single merged index.
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

// ShardedIndex is a set of per-shard inverted indexes over one dump text.
// Postings store global dump line numbers, so shard lookups need no
// translation; the per-token lists of distinct shards are disjoint and
// ascending, and lookups merge them lazily — only the queried token pays
// the merge, never the whole index. A ShardedIndex is immutable after
// construction and safe for concurrent readers.
type ShardedIndex struct {
	shards []*Index
	lines  int
}

// BuildShardedIndex tokenizes the dump into per-shard indexes, building
// shards concurrently on a bounded worker pool (workers <= 1 builds
// sequentially). The result is identical for any worker count: each shard
// tokenizes a disjoint set of class spans in ascending span order.
func BuildShardedIndex(t *Text, plan *ShardPlan, workers int) *ShardedIndex {
	spansOf := make([][]ClassSpan, plan.shards)
	for i, sp := range t.spans {
		s := plan.assign[i]
		spansOf[s] = append(spansOf[s], sp)
	}
	shards := make([]*Index, plan.shards)
	pool.ForEach(plan.shards, workers, func(s int) error {
		idx := newIndex(0)
		for _, sp := range spansOf[s] {
			for i := sp.Start; i < sp.End; i++ {
				idx.addLine(int32(i), t.lines[i])
			}
			idx.lines += sp.End - sp.Start
		}
		shards[s] = idx
		return nil
	})
	return &ShardedIndex{shards: shards, lines: len(t.lines)}
}

// lookup merges one postings list per shard (ascending, duplicate-free,
// disjoint across shards) into one ascending list in shard order, lazily
// at query time.
func (x *ShardedIndex) lookup(get func(*Index) []int32) []int32 {
	var merged []int32
	for _, sh := range x.shards {
		p := get(sh)
		if len(p) == 0 {
			continue
		}
		if merged == nil {
			merged = p
			continue
		}
		merged = mergePostings(merged, p)
	}
	return merged
}

// InvokeBySig merges the shards' invoke postings for the exact signature.
func (x *ShardedIndex) InvokeBySig(sig string) []int32 {
	return x.lookup(func(i *Index) []int32 { return i.InvokeBySig(sig) })
}

// InvokeByName merges the shards' ".name:descriptor" postings.
func (x *ShardedIndex) InvokeByName(needle string) []int32 {
	return x.lookup(func(i *Index) []int32 { return i.InvokeByName(needle) })
}

// InvokeByNamePrefix merges the shards' ".name:" prefix postings.
func (x *ShardedIndex) InvokeByNamePrefix(prefix string) []int32 {
	return x.lookup(func(i *Index) []int32 { return i.InvokeByNamePrefix(prefix) })
}

// CtorByPrefix merges the shards' constructor-call postings.
func (x *ShardedIndex) CtorByPrefix(prefix string) []int32 {
	return x.lookup(func(i *Index) []int32 { return i.CtorByPrefix(prefix) })
}

// NewInstance merges the shards' new-instance postings.
func (x *ShardedIndex) NewInstance(desc string) []int32 {
	return x.lookup(func(i *Index) []int32 { return i.NewInstance(desc) })
}

// ConstClass merges the shards' const-class postings.
func (x *ShardedIndex) ConstClass(desc string) []int32 {
	return x.lookup(func(i *Index) []int32 { return i.ConstClass(desc) })
}

// ConstString merges the shards' const-string postings.
func (x *ShardedIndex) ConstString(value string) []int32 {
	return x.lookup(func(i *Index) []int32 { return i.ConstString(value) })
}

// FieldBySig merges the shards' field-access postings.
func (x *ShardedIndex) FieldBySig(sig string) []int32 {
	return x.lookup(func(i *Index) []int32 { return i.FieldBySig(sig) })
}

// ClassUse merges the shards' class-descriptor postings.
func (x *ShardedIndex) ClassUse(desc string) []int32 {
	return x.lookup(func(i *Index) []int32 { return i.ClassUse(desc) })
}

// Lines returns the number of dump lines the sharded index covers.
func (x *ShardedIndex) Lines() int { return x.lines }

// Postings returns the total postings across all shards.
func (x *ShardedIndex) Postings() int {
	n := 0
	for _, sh := range x.shards {
		n += sh.postings
	}
	return n
}

// ShardCount returns the number of shards.
func (x *ShardedIndex) ShardCount() int { return len(x.shards) }

// Shard returns shard i (for the codec and tests).
func (x *ShardedIndex) Shard(i int) *Index { return x.shards[i] }
