package dexdump

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"backdroid/internal/dex"
)

// shardFixture builds a file with classes across several packages so the
// plans have something to partition.
func shardFixture(t testing.TB) (*dex.File, *Text) {
	t.Helper()
	f := dex.NewFile()
	objInit := dex.NewMethodRef("java.lang.Object", "<init>", dex.Void)
	for i, name := range []string{
		"com.alpha.One", "com.alpha.Two", "com.beta.Three",
		"org.gamma.Four", "org.gamma.sub.Five", "net.delta.Six",
	} {
		c := dex.NewClass(name)
		ctor := c.Constructor()
		ctor.InvokeDirect(objInit, ctor.This()).ReturnVoid().Done()
		m := c.Method("work", dex.Void)
		r := m.Reg()
		m.ConstString(r, fmt.Sprintf("payload-%d", i)).
			ConstClass(m.Reg(), "com.alpha.One").
			ReturnVoid().Done()
		if err := f.AddClass(c.Build()); err != nil {
			t.Fatal(err)
		}
	}
	return f, Disassemble(f)
}

func TestClassSpansTileDump(t *testing.T) {
	f, text := shardFixture(t)
	spans := text.ClassSpans()
	if len(spans) != len(f.Classes()) {
		t.Fatalf("spans = %d, classes = %d", len(spans), len(f.Classes()))
	}
	next := 0
	for i, sp := range spans {
		if sp.Start != next {
			t.Errorf("span %d starts at %d, want %d (spans must tile)", i, sp.Start, next)
		}
		if sp.End <= sp.Start {
			t.Errorf("span %d empty: [%d,%d)", i, sp.Start, sp.End)
		}
		if sp.Name != f.Classes()[i].Name {
			t.Errorf("span %d name = %s, want %s", i, sp.Name, f.Classes()[i].Name)
		}
		next = sp.End
	}
	if next != text.LineCount() {
		t.Errorf("spans end at %d, dump has %d lines", next, text.LineCount())
	}
}

func TestPerDexPlanContiguous(t *testing.T) {
	_, text := shardFixture(t)
	plan := PerDexPlan(text, []int{2, 3, 1})
	if plan.Shards() != 3 || plan.Kind != "per-dex" {
		t.Fatalf("plan = %+v", plan)
	}
	want := []int{0, 0, 1, 1, 1, 2}
	for i, w := range want {
		if plan.assign[i] != w {
			t.Errorf("class %d assigned to shard %d, want %d", i, plan.assign[i], w)
		}
	}
	total := 0
	for _, n := range plan.ShardLines() {
		total += n
	}
	if total != text.LineCount() {
		t.Errorf("shard lines sum to %d, dump has %d", total, text.LineCount())
	}
	if plan.MaxShardLines() <= 0 || plan.MaxShardLines() > text.LineCount() {
		t.Errorf("max shard lines = %d out of range", plan.MaxShardLines())
	}
}

func TestPerDexPlanBadCountsFallBack(t *testing.T) {
	_, text := shardFixture(t)
	for _, counts := range [][]int{nil, {1, 2}, {7}} {
		plan := PerDexPlan(text, counts)
		if plan.Shards() != 1 || plan.Kind != "single" {
			t.Errorf("counts %v: plan = %+v, want single-shard fallback", counts, plan)
		}
	}
}

func TestPackagePrefixPlanDeterministicAndPackageLocal(t *testing.T) {
	_, text := shardFixture(t)
	a := PackagePrefixPlan(text, 3)
	b := PackagePrefixPlan(text, 3)
	for i := range a.assign {
		if a.assign[i] != b.assign[i] {
			t.Fatalf("plan not deterministic at class %d: %d vs %d", i, a.assign[i], b.assign[i])
		}
	}
	// Same two-segment package prefix -> same shard.
	byName := make(map[string]int)
	for i, sp := range text.ClassSpans() {
		byName[sp.Name] = a.assign[i]
	}
	if byName["com.alpha.One"] != byName["com.alpha.Two"] {
		t.Error("com.alpha classes split across shards")
	}
	if byName["org.gamma.Four"] != byName["org.gamma.sub.Five"] {
		t.Error("org.gamma classes split across shards")
	}
}

// lookups exercises every Index lookup with tokens present in the
// fixture plus misses.
func lookups(src *Index) map[string][]int32 {
	out := make(map[string][]int32)
	out["invoke"] = src.InvokeBySig("Ljava/lang/Object;.<init>:()V")
	out["invoke-name"] = src.InvokeByName(".<init>:()V")
	out["invoke-prefix"] = src.InvokeByNamePrefix(".<init>:")
	out["invoke-prefix-miss"] = src.InvokeByNamePrefix(".nosuch:")
	out["ctor"] = src.CtorByPrefix("Ljava/lang/Object;.<init>:")
	out["new"] = src.NewInstance("Lcom/alpha/One;")
	out["const-class"] = src.ConstClass("Lcom/alpha/One;")
	out["const-string"] = src.ConstString("payload-3")
	out["field"] = src.FieldBySig("Lcom/alpha/One;.f:I")
	out["class-use"] = src.ClassUse("Lcom/alpha/One;")
	out["class-use-2"] = src.ClassUse("Lorg/gamma/sub/Five;")
	out["class-use-miss"] = src.ClassUse("Lno/such/Class;")
	return out
}

func TestShardedIndexMatchesSingleIndex(t *testing.T) {
	_, text := shardFixture(t)
	single := BuildIndex(text)
	want := lookups(single)

	// A one-shard build is the unsharded index down to the encoded bytes,
	// so bundles, shard-store blobs and caches do not depend on which
	// builder produced them.
	indexBytes := func(x *Index, plan *ShardPlan) []byte {
		t.Helper()
		data, err := EncodeBundle(text, x, testFingerprint, plan)
		if err != nil {
			t.Fatal(err)
		}
		sec, err := indexSection(data)
		if err != nil {
			t.Fatal(err)
		}
		return sec
	}
	singleBytes := indexBytes(single, nil)
	for name, plan := range map[string]*ShardPlan{
		"nil": nil, "single": SingleShardPlan(text), "package-1": PackagePrefixPlan(text, 1),
	} {
		if got := indexBytes(BuildShardedIndex(text, plan, 1), plan); !bytes.Equal(got, singleBytes) {
			t.Errorf("one-shard %s plan encodes a different index section than BuildIndex", name)
		}
	}

	// A partial index over every class is the whole index.
	all := make(map[string]bool)
	for _, sp := range text.ClassSpans() {
		all[sp.Name] = true
	}
	partial := lookups(BuildPartialIndex(text, all))
	for name := range want {
		if !equalPostings(partial[name], want[name]) {
			t.Errorf("partial index over all classes: %s postings = %v, single = %v", name, partial[name], want[name])
		}
	}

	for _, shards := range []int{1, 2, 3, 5, 16} {
		for _, workers := range []int{1, 4} {
			plan := PackagePrefixPlan(text, shards)
			sharded := BuildShardedIndex(text, plan, workers)
			if sharded.ShardCount() != shards {
				t.Fatalf("shard count = %d, want %d", sharded.ShardCount(), shards)
			}
			if sharded.Lines() != single.Lines() {
				t.Errorf("lines = %d, want %d", sharded.Lines(), single.Lines())
			}
			if sharded.Postings() != single.Postings() {
				t.Errorf("shards=%d: postings = %d, single index has %d",
					shards, sharded.Postings(), single.Postings())
			}
			got := lookups(sharded)
			for name := range want {
				if !equalPostings(got[name], want[name]) {
					t.Errorf("shards=%d workers=%d: %s postings = %v, single = %v",
						shards, workers, name, got[name], want[name])
				}
			}
		}
	}
}

func TestPerDexShardedIndexMatchesSingle(t *testing.T) {
	_, text := shardFixture(t)
	single := BuildIndex(text)
	sharded := BuildShardedIndex(text, PerDexPlan(text, []int{2, 3, 1}), 2)
	want := lookups(single)
	got := lookups(sharded)
	for name := range want {
		if !equalPostings(got[name], want[name]) {
			t.Errorf("%s postings = %v, single = %v", name, got[name], want[name])
		}
	}
}

func TestShardedLookupsAscending(t *testing.T) {
	_, text := shardFixture(t)
	sharded := BuildShardedIndex(text, PackagePrefixPlan(text, 4), 2)
	for name, p := range lookups(sharded) {
		for i := 1; i < len(p); i++ {
			if p[i] <= p[i-1] {
				t.Errorf("%s postings not strictly ascending: %v", name, p)
				break
			}
		}
	}
}

func TestInvokeByNamePrefixCoversQuotedLiterals(t *testing.T) {
	f := dex.NewFile()
	c := dex.NewClass("com.spoof.Logger")
	m := c.Method("log", dex.Void)
	m.ConstString(m.Reg(), "saw invoke-virtual {v0}, Lx/Y;.startActivity:(L)V").
		ReturnVoid().Done()
	if err := f.AddClass(c.Build()); err != nil {
		t.Fatal(err)
	}
	text := Disassemble(f)
	idx := BuildIndex(text)
	got := idx.InvokeByNamePrefix(".startActivity:")
	want := linesMatching(text, func(line string) bool {
		return strings.Contains(line, "invoke-") && strings.Contains(line, ".startActivity:")
	})
	if len(want) == 0 {
		t.Fatal("spoof literal did not fire")
	}
	// Candidates must be a superset of the linear matches.
	have := make(map[int32]bool, len(got))
	for _, n := range got {
		have[n] = true
	}
	for _, n := range want {
		if !have[n] {
			t.Errorf("linear match line %d missing from prefix candidates %v", n, got)
		}
	}
}
