package dexdump

import (
	"bytes"
	"testing"

	"backdroid/internal/dex"
)

// buildFixtureFile assembles a dex file from named classes in order; each
// class body depends only on the class name, so the same name produces
// the same body at any position.
func buildFixtureFile(t *testing.T, names ...string) (*dex.File, *Text) {
	t.Helper()
	f := dex.NewFile()
	objInit := dex.NewMethodRef("java.lang.Object", "<init>", dex.Void)
	for _, name := range names {
		c := dex.NewClass(name)
		ctor := c.Constructor()
		ctor.InvokeDirect(objInit, ctor.This()).ReturnVoid().Done()
		m := c.Method("work", dex.Void)
		m.ConstString(m.Reg(), "payload-"+name).ReturnVoid().Done()
		if err := f.AddClass(c.Build()); err != nil {
			t.Fatal(err)
		}
	}
	return f, Disassemble(f)
}

// TestSpanFingerprintPositionIndependent pins the content-addressing
// property everything above relies on: a class body fingerprints
// identically no matter where it sits in the dump (the "Class #N" header
// line embeds the position and must be excluded from the hash).
func TestSpanFingerprintPositionIndependent(t *testing.T) {
	_, a := buildFixtureFile(t, "com.x.Keep", "com.x.Other")
	_, b := buildFixtureFile(t, "com.x.First", "com.x.Second", "com.x.Keep")

	spA, ok := a.SpanOf("com.x.Keep")
	if !ok {
		t.Fatal("com.x.Keep missing from dump A")
	}
	spB, ok := b.SpanOf("com.x.Keep")
	if !ok {
		t.Fatal("com.x.Keep missing from dump B")
	}
	if spA.Start == spB.Start {
		t.Fatal("fixture broken: class sits at the same position in both dumps")
	}
	if SpanFingerprint(a, spA) != SpanFingerprint(b, spB) {
		t.Error("identical class body fingerprints differently at different positions")
	}
	other, _ := a.SpanOf("com.x.Other")
	if SpanFingerprint(a, spA) == SpanFingerprint(a, other) {
		t.Error("different class bodies share a fingerprint")
	}
}

// TestManifestRoundtrip pins the codec: the manifest encoded into a v3
// bundle decodes identically, with the plan's shard assignment intact.
func TestManifestRoundtrip(t *testing.T) {
	_, text := shardFixture(t)
	plan := PackagePrefixPlan(text, 3)
	idx := BuildShardedIndex(text, plan, 1)
	data, err := EncodeBundle(text, idx, testFingerprint, plan)
	if err != nil {
		t.Fatal(err)
	}
	want := BuildManifest(text, plan)
	got, ok := DecodeManifest(data)
	if !ok {
		t.Fatal("v3 bundle manifest did not decode")
	}
	if got.Shards != want.Shards || len(got.Entries) != len(want.Entries) {
		t.Fatalf("manifest shape = %d shards / %d entries, want %d / %d",
			got.Shards, len(got.Entries), want.Shards, len(want.Entries))
	}
	for i := range want.Entries {
		if got.Entries[i] != want.Entries[i] {
			t.Errorf("entry %d = %+v, want %+v", i, got.Entries[i], want.Entries[i])
		}
	}
}

// TestShardFingerprintsDedupAcrossVersions pins the cross-version
// property of the shard store key: two versions differing in one class
// share every shard fingerprint except the changed class's shard.
func TestShardFingerprintsDedupAcrossVersions(t *testing.T) {
	_, v1 := buildFixtureFile(t, "com.a.One", "com.a.Two", "com.b.Three", "com.b.Four")
	f2 := dex.NewFile()
	objInit := dex.NewMethodRef("java.lang.Object", "<init>", dex.Void)
	for _, name := range []string{"com.a.One", "com.a.Two", "com.b.Three", "com.b.Four"} {
		c := dex.NewClass(name)
		ctor := c.Constructor()
		ctor.InvokeDirect(objInit, ctor.This()).ReturnVoid().Done()
		m := c.Method("work", dex.Void)
		payload := "payload-" + name
		if name == "com.b.Four" {
			payload = "patched-" + name // the update's one changed class
		}
		m.ConstString(m.Reg(), payload).ReturnVoid().Done()
		if err := f2.AddClass(c.Build()); err != nil {
			t.Fatal(err)
		}
	}
	v2 := Disassemble(f2)

	planOf := func(t2 *Text) *ShardPlan { return PackagePrefixPlan(t2, 2) }
	m1 := BuildManifest(v1, planOf(v1))
	m2 := BuildManifest(v2, planOf(v2))
	fp1, fp2 := m1.ShardFingerprints(), m2.ShardFingerprints()
	if len(fp1) != 2 || len(fp2) != 2 {
		t.Fatalf("shard counts = %d / %d, want 2 / 2", len(fp1), len(fp2))
	}
	shared, distinct := 0, 0
	seen := map[uint64]bool{}
	for _, fp := range fp1 {
		seen[fp] = true
	}
	for _, fp := range fp2 {
		if seen[fp] {
			shared++
		} else {
			distinct++
		}
	}
	if shared != 1 || distinct != 1 {
		t.Errorf("shared/distinct shards = %d/%d, want 1/1 (only com.b's shard changed)", shared, distinct)
	}

	d := DiffManifests(m1, m2)
	if len(d.Changed) != 1 || d.Changed[0] != "com.b.Four" || d.Unchanged != 3 {
		t.Errorf("diff = %+v, want exactly com.b.Four changed", d)
	}
	if d.ShardsUnchanged != 1 || d.ShardsChanged != 1 {
		t.Errorf("shard diff = %d unchanged / %d changed, want 1/1", d.ShardsUnchanged, d.ShardsChanged)
	}
}

// TestShardPayloadsMatchEncodedShards pins that the payload split is the
// exact byte ranges the decoder consumes: stitching the payloads back
// together reproduces the bundle's index payload.
func TestShardPayloadsMatchEncodedShards(t *testing.T) {
	_, text := shardFixture(t)
	plan := PackagePrefixPlan(text, 3)
	idx := BuildShardedIndex(text, plan, 1)
	data, err := EncodeBundle(text, idx, testFingerprint, plan)
	if err != nil {
		t.Fatal(err)
	}
	fps, payloads, ok := ShardPayloads(data)
	if !ok {
		t.Fatal("shard payload split failed on a pristine bundle")
	}
	if len(fps) != plan.Shards() || len(payloads) != plan.Shards() {
		t.Fatalf("split = %d fps / %d payloads, want %d", len(fps), len(payloads), plan.Shards())
	}
	want, err := indexSection(data)
	if err != nil {
		t.Fatal(err)
	}
	if got := bytes.Join(payloads, nil); !bytes.Equal(got, want) {
		t.Error("stitched shard payloads differ from the index section")
	}
}

// TestBuildPartialIndexGlobalLines pins the replay-probe contract: a
// partial index over a subset of classes returns hits with the full
// dump's line numbers.
func TestBuildPartialIndexGlobalLines(t *testing.T) {
	_, text := buildFixtureFile(t, "com.a.One", "com.a.Two", "com.b.Three")
	partial := BuildPartialIndex(text, map[string]bool{"com.b.Three": true})
	full := BuildIndex(text)

	want := full.ConstString("payload-com.b.Three")
	got := partial.ConstString("payload-com.b.Three")
	if len(want) == 0 {
		t.Fatal("fixture literal not indexed by the full index")
	}
	if !equalPostings(got, want) {
		t.Errorf("partial postings = %v, want the full index's global lines %v", got, want)
	}
	sp, _ := text.SpanOf("com.b.Three")
	for _, n := range got {
		if int(n) < sp.Start || int(n) >= sp.End {
			t.Errorf("line %d outside the class span [%d,%d)", n, sp.Start, sp.End)
		}
	}
	// Spans outside the subset contribute nothing.
	if lines := partial.ConstString("payload-com.a.One"); len(lines) != 0 {
		t.Errorf("partial index indexed an excluded class: %v", lines)
	}
}
