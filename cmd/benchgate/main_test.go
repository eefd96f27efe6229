package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"backdroid/internal/appgen"
)

func writeBaseline(t *testing.T, r Report) string {
	t.Helper()
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func sampleReport() Report {
	return Report{
		Corpus: CorpusMeta{Apps: 16, Scale: 0.15, Seed: 1},
		Backends: map[string]BackendCost{
			"linear":  {WorkUnits: 100000, LinesScanned: 5000000},
			"indexed": {WorkUnits: 20000},
		},
		WarmCache: BackendCost{WorkUnits: 15000, IndexCacheHits: 16},
	}
}

func TestGatePassesWithinTolerance(t *testing.T) {
	base := sampleReport()
	path := writeBaseline(t, base)

	cur := sampleReport()
	cur.Backends["indexed"] = BackendCost{WorkUnits: 21900} // +9.5%
	if err := gate(cur, path, 0.10); err != nil {
		t.Errorf("within-tolerance run failed the gate: %v", err)
	}
}

func TestGateFailsOnRegression(t *testing.T) {
	base := sampleReport()
	path := writeBaseline(t, base)

	cur := sampleReport()
	cur.Backends["indexed"] = BackendCost{WorkUnits: 23000} // +15%
	if err := gate(cur, path, 0.10); err == nil {
		t.Error("15% charged-work regression passed the gate")
	}

	cur = sampleReport()
	lin := cur.Backends["linear"]
	lin.LinesScanned = 6000000 // +20% line scans at equal units
	cur.Backends["linear"] = lin
	if err := gate(cur, path, 0.10); err == nil {
		t.Error("line-scan regression passed the gate")
	}

	cur = sampleReport()
	cur.WarmCache.WorkUnits = 20000 // warm path regressed
	if err := gate(cur, path, 0.10); err == nil {
		t.Error("warm-cache regression passed the gate")
	}
}

func TestGateRejectsMismatchedCorpus(t *testing.T) {
	base := sampleReport()
	path := writeBaseline(t, base)
	cur := sampleReport()
	cur.Corpus.Apps = 32
	if err := gate(cur, path, 0.10); err == nil {
		t.Error("baseline for a different corpus accepted")
	}
}

func TestGateRejectsMissingBackend(t *testing.T) {
	base := sampleReport()
	path := writeBaseline(t, base)
	cur := sampleReport()
	delete(cur.Backends, "indexed")
	if err := gate(cur, path, 0.10); err == nil {
		t.Error("missing backend accepted")
	}
}

func TestGateMissingBaselineFile(t *testing.T) {
	if err := gate(sampleReport(), filepath.Join(t.TempDir(), "nope.json"), 0.10); err == nil {
		t.Error("missing baseline file accepted")
	}
}

// invariant is one way to break a passing synthetic report; check must
// then fail with an error containing want.
type invariant[R report] struct {
	name   string
	mutate func(*R)
	want   string
}

// testInvariants asserts that good() passes check and that each
// invariant's breakage fails it with the expected error.
func testInvariants[R report](t *testing.T, good func() R, invs []invariant[R]) {
	t.Helper()
	if err := good().check(); err != nil {
		t.Fatalf("passing report rejected: %v", err)
	}
	for _, inv := range invs {
		t.Run(inv.name, func(t *testing.T) {
			r := good()
			inv.mutate(&r)
			if err := r.check(); err == nil || !strings.Contains(err.Error(), inv.want) {
				t.Errorf("check() = %v, want an error containing %q", err, inv.want)
			}
		})
	}
}

func TestSearchCheck(t *testing.T) {
	testInvariants(t, func() Report {
		return Report{SpeedupIndexed: 6.5}
	}, []invariant[Report]{
		{"indexed not faster", func(r *Report) { r.SpeedupIndexed = 1 }, "index speedups"},
	})
}

func TestWarmCheck(t *testing.T) {
	testInvariants(t, func() WarmReport {
		return WarmReport{
			Corpus:            CorpusMeta{Apps: 16},
			Warm:              BackendCost{DumpCacheHits: 16, IndexCacheHits: 16, WorkUnits: 16000},
			SpeedupWarmVsCold: 1.85,
		}
	}, []invariant[WarmReport]{
		{"warm builds", func(w *WarmReport) { w.Warm.IndexBuilds = 1 }, "built 1 indexes"},
		{"warm disassembles", func(w *WarmReport) { w.Warm.DumpLinesCold = 10 }, "disassembled 10 dump lines"},
		{"too few dump hits", func(w *WarmReport) { w.Warm.DumpCacheHits = 15 }, "loaded 15 cached dumps, want 16"},
		{"too many dump hits", func(w *WarmReport) { w.Warm.DumpCacheHits = 17 }, "loaded 17 cached dumps, want 16"},
		{"warm not faster", func(w *WarmReport) { w.SpeedupWarmVsCold = 1 }, "warm speedup"},
	})
}

func TestServiceCheck(t *testing.T) {
	testInvariants(t, func() ServiceReport {
		return ServiceReport{
			Corpus:            CorpusMeta{Apps: 16},
			FirstPass:         BackendCost{IndexBuilds: 16, WorkUnits: 30000},
			SecondPass:        BackendCost{BundleStoreHits: 16, WorkUnits: 16000},
			SpeedupBatchReuse: 1.88,
		}
	}, []invariant[ServiceReport]{
		{"second pass builds", func(s *ServiceReport) { s.SecondPass.IndexBuilds = 2 }, "built 2 indexes"},
		{"second pass disassembles", func(s *ServiceReport) { s.SecondPass.DumpLinesCold = 7 }, "disassembled 7 lines"},
		{"too few store hits", func(s *ServiceReport) { s.SecondPass.BundleStoreHits = 15 }, "hit the store 15 times, want 16"},
		{"too many store hits", func(s *ServiceReport) { s.SecondPass.BundleStoreHits = 17 }, "hit the store 17 times, want 16"},
		{"reuse not faster", func(s *ServiceReport) { s.SpeedupBatchReuse = 0.99 }, "batch-reuse speedup"},
	})
}

func TestTenantCheck(t *testing.T) {
	testInvariants(t, func() TenantReport {
		// Boundary values pass: the bound is inclusive, the ceiling is not.
		return TenantReport{LastLightSlot: 9, FairnessBound: 9, JournalOverhead: 0.0499}
	}, []invariant[TenantReport]{
		{"light slot past bound", func(r *TenantReport) { r.LastLightSlot = 10 }, "slot 10, fairness bound is 9"},
		{"journal overhead at 5%", func(r *TenantReport) { r.JournalOverhead = 0.05 }, "journal overhead 5.00%"},
	})
}

func TestFleetCheck(t *testing.T) {
	testInvariants(t, func() FleetReport {
		return FleetReport{
			Plan: "kill:job=a@64", Killed: 2, Handoffs: 2, UnionIdentical: true,
			LastLightSlot: 9, FairnessBound: 9, OverheadRatio: 0.0568,
		}
	}, []invariant[FleetReport]{
		{"union diverges", func(f *FleetReport) { f.UnionIdentical = false }, "report union diverges"},
		{"one kill", func(f *FleetReport) { f.Killed = 1 }, "killed 1 nodes, want 2"},
		{"three kills", func(f *FleetReport) { f.Killed = 3 }, "killed 3 nodes, want 2"},
		{"one handoff", func(f *FleetReport) { f.Handoffs = 1 }, "handed off 1 jobs"},
		{"three handoffs", func(f *FleetReport) { f.Handoffs = 3 }, "handed off 3 jobs"},
		{"light slot past bound", func(f *FleetReport) { f.LastLightSlot = 10 }, "fleet slot 10"},
		{"overhead at 10%", func(f *FleetReport) { f.OverheadRatio = 0.10 }, "fleet fault overhead 10.00%"},
	})
}

func TestDeltaCheck(t *testing.T) {
	testInvariants(t, func() DeltaReport {
		return DeltaReport{
			Legs: []DeltaLeg{
				{Mutation: appgen.MutateChangeLiteral.String(), ColdUnits: 746, DeltaUnits: 60, SinksReused: 4},
				// new-flow is not a one-class update: half of cold passes.
				{Mutation: appgen.MutateNewFlow.String(), ColdUnits: 758, DeltaUnits: 379, SinksReused: 5},
				{Mutation: appgen.MutateAddClass.String(), ColdUnits: 748, DeltaUnits: 32, SinksReused: 5},
			},
		}
	}, []invariant[DeltaReport]{
		{"no sinks reused", func(d *DeltaReport) { d.Legs[1].SinksReused = 0 }, `"new-flow" reused no sinks`},
		{"delta as costly as cold", func(d *DeltaReport) { d.Legs[1].DeltaUnits = 758 }, "costs more than cold"},
		{"change-literal at 10% of cold", func(d *DeltaReport) { d.Legs[0].ColdUnits, d.Legs[0].DeltaUnits = 750, 75 }, `"change-literal" charged 75 units, over 10%`},
		{"add-class at 10% of cold", func(d *DeltaReport) { d.Legs[2].DeltaUnits = 100 }, `"add-class" charged 100 units, over 10%`},
	})
}

func TestSettledCheck(t *testing.T) {
	testInvariants(t, func() SettledReport {
		return SettledReport{
			Corpus:         CorpusMeta{Apps: 16},
			StormPasses:    10,
			ColdPass:       BackendCost{IndexBuilds: 16, DumpLinesCold: 204175, WorkUnits: 30320},
			Storm:          BackendCost{WorkUnits: 160},
			SettledLookups: 160,
		}
	}, []invariant[SettledReport]{
		{"storm builds", func(s *SettledReport) { s.Storm.IndexBuilds = 1 }, "built 1 indexes"},
		{"storm disassembles", func(s *SettledReport) { s.Storm.DumpLinesCold = 3 }, "disassembled 3 dump lines"},
		{"too few lookups", func(s *SettledReport) { s.SettledLookups = 159 }, "159 settled lookups, want 160"},
		{"too many lookups", func(s *SettledReport) { s.SettledLookups = 161 }, "161 settled lookups, want 160"},
		{"storm at 1% of cold", func(s *SettledReport) { s.ColdPass.WorkUnits, s.Storm.WorkUnits = 30400, 304 }, "over 1% of the 30400-unit cold pass"},
	})
}

func TestStealCheck(t *testing.T) {
	testInvariants(t, func() StealReport {
		return StealReport{
			NoStealMakespan: 57912, StealMakespan: 27536, SpeedupMakespan: 2.10,
			Steals: 3, UnionIdentical: true, OverheadRatio: 0.0009,
		}
	}, []invariant[StealReport]{
		{"union diverges", func(s *StealReport) { s.UnionIdentical = false }, "report union diverges"},
		{"no steals", func(s *StealReport) { s.Steals = 0 }, "stole no chunks"},
		{"makespan under 1.5x", func(s *StealReport) { s.SpeedupMakespan = 1.49 }, "floor is 1.5x"},
		{"overhead at 10%", func(s *StealReport) { s.OverheadRatio = 0.10 }, "steal overhead 10.00%"},
	})
}

// TestLegOrder pins the dependencies between legs: search runs before
// every leg that reads its results, and steal before search, whose
// report records it.
func TestLegOrder(t *testing.T) {
	pos := make(map[string]int, len(legs))
	for i, l := range legs {
		if _, dup := pos[l.name]; dup {
			t.Fatalf("leg %q listed twice", l.name)
		}
		pos[l.name] = i
	}
	for _, after := range []string{"service", "settled", "warm"} {
		if pos[after] <= pos["search"] {
			t.Errorf("leg %q runs before search, whose results it reads", after)
		}
	}
	if pos["steal"] >= pos["search"] {
		t.Error("steal runs after search, whose report records it")
	}
}

func TestRunWriteBaselineNeedsPath(t *testing.T) {
	err := run(config{writeBaseline: true, outDir: t.TempDir()})
	if err == nil || !strings.Contains(err.Error(), "-write-baseline needs -baseline") {
		t.Errorf("run = %v, want the missing -baseline error", err)
	}
}
