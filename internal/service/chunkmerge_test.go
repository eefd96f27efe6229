package service

import (
	"bytes"
	"math/rand"
	"testing"

	"backdroid/internal/android"
	"backdroid/internal/appgen"
	"backdroid/internal/core"
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
