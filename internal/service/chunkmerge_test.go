package service

import (
	"bytes"
	"math/rand"
	"testing"

	"backdroid/internal/android"
	"backdroid/internal/apk"
	"backdroid/internal/appgen"
	"backdroid/internal/core"
	"backdroid/internal/dex"
	"backdroid/internal/manifest"
)

// chunkParitySpec is a scaled-down many-sink outlier: enough sinks that
// random chunkings are non-trivial, small enough that running a dozen
// partitions per configuration stays fast.
func chunkParitySpec() appgen.Spec {
	sinks := make([]appgen.SinkSpec, 0, 24)
	for s := 0; s < 24; s++ {
		sinks = append(sinks, appgen.SinkSpec{
			Flow:     appgen.FlowSharedConfig,
			Rule:     android.RuleCryptoECB,
			Insecure: s%3 != 0,
		})
	}
	return appgen.Spec{Name: "com.chunk.parity", Seed: 777, SizeMB: 2, Sinks: sinks}
}

// randomChunking partitions [0, total) into contiguous ranges with
// random cut points.
func randomChunking(rng *rand.Rand, total int) []core.ChunkRange {
	var ranges []core.ChunkRange
	from := 0
	for from < total {
		size := 1 + rng.Intn(total/2+1)
		to := from + size
		if to > total {
			to = total
		}
		ranges = append(ranges, core.ChunkRange{From: from, To: to})
		from = to
	}
	return ranges
}

// TestMergeReportsChunkingParity is the tentpole's core property: for
// every chunking of the canonical sink list — random partitions, chunks
// shuffled to arrive out of order, plus overlapping ranges — MergeReports
// over the per-chunk partial reports is bitwise-identical (in canonical
// settled encoding) to the single-pass run on the indexed backend. All
// chunks run against the same shared bundle store, so only the first run
// pays the disassembly.
func TestMergeReportsChunkingParity(t *testing.T) {
	app, _, err := appgen.Generate(chunkParitySpec())
	if err != nil {
		t.Fatal(err)
	}
	t.Run("indexed", func(t *testing.T) {
		store := NewBundleStore(0)
		base := core.DefaultOptions()
		base.Bundles = store

		runRange := func(cr *core.ChunkRange) *core.Report {
			t.Helper()
			o := base
			o.ChunkRange = cr
			e, err := core.New(app, o)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := e.Analyze()
			if err != nil {
				t.Fatal(err)
			}
			return rep
		}

		ref := runRange(nil)
		total := len(ref.Sinks)
		if total != 24 {
			t.Fatalf("reference run found %d sinks, want 24", total)
		}
		refBytes := EncodeReport(ref)

		rng := rand.New(rand.NewSource(20210621))
		for trial := 0; trial < 5; trial++ {
			ranges := randomChunking(rng, total)
			rng.Shuffle(len(ranges), func(i, j int) { ranges[i], ranges[j] = ranges[j], ranges[i] })
			parts := make([]*core.Report, len(ranges))
			for i := range ranges {
				parts[i] = runRange(&ranges[i])
			}
			merged := core.MergeReports(parts...)
			if !bytes.Equal(EncodeReport(merged), refBytes) {
				t.Fatalf("trial %d: merge of chunking %v diverged from the single pass:\n%s\nvs\n%s",
					trial, ranges, detectionKey(merged), detectionKey(ref))
			}
			if merged.Stats.SinkCallsTotal != ref.Stats.SinkCallsTotal {
				t.Fatalf("trial %d: merged SinkCallsTotal = %d, want %d",
					trial, merged.Stats.SinkCallsTotal, ref.Stats.SinkCallsTotal)
			}
		}

		// Overlap tolerance: a sink finished by the victim right as it
		// was stolen appears in two parts; the merge dedups it.
		a := runRange(&core.ChunkRange{From: 0, To: 14})
		b := runRange(&core.ChunkRange{From: 10, To: total})
		if !bytes.Equal(EncodeReport(core.MergeReports(a, b)), refBytes) {
			t.Fatal("overlapping chunk merge diverged from the single pass")
		}

		// Clamping: out-of-range bounds degrade to the valid window.
		c := runRange(&core.ChunkRange{From: -3, To: 14})
		d := runRange(&core.ChunkRange{From: 14, To: total + 99})
		if !bytes.Equal(EncodeReport(core.MergeReports(d, c)), refBytes) {
			t.Fatal("clamped chunk merge diverged from the single pass")
		}
	})
}

// TestMergeReportsSumsWork pins the accounting half of the merge: the
// merged WorkUnits are the sum over every chunk (the total charged
// across the fleet), SimMinutes is recomputed from that sum, and the
// header fields union correctly.
func TestMergeReportsSumsWork(t *testing.T) {
	app, _, err := appgen.Generate(chunkParitySpec())
	if err != nil {
		t.Fatal(err)
	}
	store := NewBundleStore(0)
	o := core.DefaultOptions()
	o.Bundles = store
	run := func(cr *core.ChunkRange) *core.Report {
		t.Helper()
		oo := o
		oo.ChunkRange = cr
		e, err := core.New(app, oo)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := e.Analyze()
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	ref := run(nil)
	half := len(ref.Sinks) / 2
	a := run(&core.ChunkRange{From: 0, To: half})
	b := run(&core.ChunkRange{From: half, To: len(ref.Sinks)})
	m := core.MergeReports(a, b)
	if want := a.Stats.WorkUnits + b.Stats.WorkUnits; m.Stats.WorkUnits != want {
		t.Fatalf("merged WorkUnits = %d, want %d", m.Stats.WorkUnits, want)
	}
	if m.Stats.SimMinutes <= 0 {
		t.Fatalf("merged SimMinutes = %v", m.Stats.SimMinutes)
	}
	if m.App != ref.App || len(m.Registered) != len(ref.Registered) {
		t.Fatalf("merged header %q/%d, want %q/%d", m.App, len(m.Registered), ref.App, len(ref.Registered))
	}
	if core.MergeReports() == nil {
		t.Fatal("empty merge returned nil")
	}
	if got := core.MergeReports(nil, a, nil); len(got.Sinks) != half {
		t.Fatalf("nil-tolerant merge kept %d sinks, want %d", len(got.Sinks), half)
	}
}

// collidingCallersApp builds an app whose two sink callers share a Soot
// signature: com.ex.A's "a(b" with no parameters and its "a" taking the
// class "b(" both print as <com.ex.A: void a(b()>. Each calls the cipher
// sink at unit 2 with its own transformation, and the registered
// activity calls both.
func collidingCallersApp(t *testing.T) *apk.App {
	t.Helper()
	a := dex.NewClass("com.ex.A")
	m1 := a.StaticMethod("a(b", dex.Void)
	pad, s1, c1 := m1.Reg(), m1.Reg(), m1.Reg()
	first := m1.Const(pad, 0).ConstString(s1, "AES/ECB/PKCS5Padding").
		InvokeStatic(android.CipherGetInstance, s1).MoveResult(c1).ReturnVoid().Ref()
	m2 := a.StaticMethod("a", dex.Void, dex.TypeDesc("Lb(;"))
	s2, c2 := m2.Reg(), m2.Reg()
	second := m2.ConstString(s2, "AES/CBC/PKCS5Padding").
		InvokeStatic(android.CipherGetInstance, s2).MoveResult(c2).ReturnVoid().Ref()

	main := dex.NewClass("com.ex.MainActivity").Extends(android.ActivityClass)
	oc := main.Method("onCreate", dex.Void, dex.T(android.BundleClass))
	arg := oc.Reg()
	oc.InvokeStatic(first).ConstNull(arg).InvokeStatic(second, arg).ReturnVoid()

	f := dex.NewFile()
	for _, cb := range []*dex.ClassBuilder{m2.Done(), oc.Done()} {
		if err := f.AddClass(cb.Build()); err != nil {
			t.Fatal(err)
		}
	}
	m := manifest.New("com.ex")
	m.Add(manifest.Activity, "com.ex.MainActivity")
	return apk.New("com.ex", m, f)
}

// TestMergeReportsKeepsCollidingCallers: two sinks whose callers print
// the same signature, at the same unit index, are two sinks. The single
// pass reports both with their own verdicts, and a chunk-split merge
// keeps both and equals the single pass.
func TestMergeReportsKeepsCollidingCallers(t *testing.T) {
	app := collidingCallersApp(t)
	run := func(cr *core.ChunkRange) *core.Report {
		t.Helper()
		o := core.DefaultOptions()
		o.ChunkRange = cr
		e, err := core.New(app, o)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := e.Analyze()
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}

	ref := run(nil)
	if len(ref.Sinks) != 2 {
		t.Fatalf("single pass found %d sinks, want 2:\n%s", len(ref.Sinks), detectionKey(ref))
	}
	x, y := ref.Sinks[0].Call, ref.Sinks[1].Call
	if x.Caller.SootSignature() != y.Caller.SootSignature() || x.UnitIndex != y.UnitIndex || x.Caller.Equal(y.Caller) {
		t.Fatalf("callers %#v#%d and %#v#%d do not collide", x.Caller, x.UnitIndex, y.Caller, y.UnitIndex)
	}
	insecure := 0
	for _, s := range ref.Sinks {
		if !s.Reachable {
			t.Errorf("sink in %#v unreachable", s.Call.Caller)
		}
		if s.Insecure {
			insecure++
		}
	}
	if insecure != 1 {
		t.Errorf("%d insecure sinks, want the ECB one only:\n%s", insecure, detectionKey(ref))
	}

	merged := core.MergeReports(run(&core.ChunkRange{From: 1, To: 2}), run(&core.ChunkRange{From: 0, To: 1}))
	if !bytes.Equal(EncodeReport(merged), EncodeReport(ref)) {
		t.Fatalf("chunk merge diverged from the single pass:\n%s\nvs\n%s", detectionKey(merged), detectionKey(ref))
	}
}
