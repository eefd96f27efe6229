package simtime

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestChargeAccumulates(t *testing.T) {
	m := NewMeter()
	for i := 0; i < 10; i++ {
		if err := m.Charge(100); err != nil {
			t.Fatalf("Charge: %v", err)
		}
	}
	if m.Units() != 1000 {
		t.Errorf("Units = %d, want 1000", m.Units())
	}
	if m.Exhausted() {
		t.Error("unlimited meter must not exhaust")
	}
}

func TestChargeNegative(t *testing.T) {
	m := NewMeter()
	if err := m.Charge(-1); err == nil {
		t.Error("negative charge must fail")
	}
}

func TestBudgetTimeout(t *testing.T) {
	m := NewMeter()
	m.SetBudget(100)
	if err := m.Charge(100); err != nil {
		t.Fatalf("within budget: %v", err)
	}
	err := m.Charge(1)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("over budget err = %v, want ErrTimeout", err)
	}
	if !m.Exhausted() {
		t.Error("Exhausted should be true")
	}
	// Overage is recorded.
	if m.Units() != 101 {
		t.Errorf("Units = %d, want 101", m.Units())
	}
}

func TestTimeoutMeterMinutes(t *testing.T) {
	m := NewMeterWithTimeout(2)
	if err := m.Charge(MinutesToUnits(1.5)); err != nil {
		t.Fatalf("1.5 min within 2 min budget: %v", err)
	}
	if err := m.Charge(MinutesToUnits(1)); !errors.Is(err, ErrTimeout) {
		t.Fatalf("2.5 min should exceed 2 min budget, got %v", err)
	}
}

func TestChargeLines(t *testing.T) {
	m := NewMeter()
	if err := m.ChargeLines(0); err != nil {
		t.Fatal(err)
	}
	if m.Units() != 1 {
		t.Errorf("zero lines should still cost 1, got %d", m.Units())
	}
	m2 := NewMeter()
	if err := m2.ChargeLines(LinesPerUnit * 10); err != nil {
		t.Fatal(err)
	}
	if m2.Units() != 11 {
		t.Errorf("ChargeLines(%d) = %d units, want 11", LinesPerUnit*10, m2.Units())
	}
}

func TestChargeIndexBuild(t *testing.T) {
	m := NewMeter()
	if err := m.ChargeIndexBuild(0); err != nil {
		t.Fatal(err)
	}
	if m.Units() != 1 {
		t.Errorf("zero-line build should still cost 1, got %d", m.Units())
	}
	m2 := NewMeter()
	if err := m2.ChargeIndexBuild(IndexBuildLinesPerUnit * 10); err != nil {
		t.Fatal(err)
	}
	if m2.Units() != 11 {
		t.Errorf("ChargeIndexBuild(%d) = %d units, want 11", IndexBuildLinesPerUnit*10, m2.Units())
	}
	// The cost model must keep index construction dearer per line than a
	// plain scan, and postings cheaper than lines — the whole point of
	// paying the build once.
	if IndexBuildLinesPerUnit >= LinesPerUnit {
		t.Errorf("index build (%d lines/unit) should cost more per line than scanning (%d)",
			IndexBuildLinesPerUnit, LinesPerUnit)
	}
	if PostingsPerUnit <= LinesPerUnit {
		t.Errorf("postings (%d/unit) should be cheaper than line scans (%d/unit)",
			PostingsPerUnit, LinesPerUnit)
	}
}

func TestChargePostings(t *testing.T) {
	m := NewMeter()
	if err := m.ChargePostings(0); err != nil {
		t.Fatal(err)
	}
	if m.Units() != 1 {
		t.Errorf("zero postings should still cost 1, got %d", m.Units())
	}
	m2 := NewMeter()
	m2.SetBudget(2)
	if err := m2.ChargePostings(PostingsPerUnit * 10); !errors.Is(err, ErrTimeout) {
		t.Errorf("postings charge should respect the budget, got %v", err)
	}
}

func TestUnitConversionRoundTrip(t *testing.T) {
	f := func(mins uint16) bool {
		m := float64(mins)
		return UnitsToMinutes(MinutesToUnits(m)) == m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMinutes(t *testing.T) {
	m := NewMeter()
	if err := m.Charge(UnitsPerMinute * 3); err != nil {
		t.Fatal(err)
	}
	if m.Minutes() != 3 {
		t.Errorf("Minutes = %f, want 3", m.Minutes())
	}
}

func TestChargeShardedIndexBuild(t *testing.T) {
	// Charged on the critical path: the largest shard, not the whole dump.
	whole := NewMeter()
	if err := whole.ChargeIndexBuild(8000); err != nil {
		t.Fatal(err)
	}
	sharded := NewMeter()
	if err := sharded.ChargeShardedIndexBuild(2000, 4); err != nil {
		t.Fatal(err)
	}
	if sharded.Units() >= whole.Units() {
		t.Errorf("4-way sharded build charged %d units, whole build %d — parallel build must be cheaper",
			sharded.Units(), whole.Units())
	}
	// Per-shard overhead is charged even for empty shards.
	m := NewMeter()
	if err := m.ChargeShardedIndexBuild(0, 3); err != nil {
		t.Fatal(err)
	}
	if want := int64(ShardOverheadUnits*3 + 1); m.Units() != want {
		t.Errorf("empty sharded build charged %d units, want %d", m.Units(), want)
	}
	// Budgets abort the build like any other charge.
	m2 := NewMeter()
	m2.SetBudget(2)
	if err := m2.ChargeShardedIndexBuild(IndexBuildLinesPerUnit*100, 8); !errors.Is(err, ErrTimeout) {
		t.Errorf("sharded build should respect the budget, got %v", err)
	}
}

func TestChargeShardMerge(t *testing.T) {
	m := NewMeter()
	if err := m.ChargeShardMerge(0); err != nil {
		t.Fatal(err)
	}
	if m.Units() != 1 {
		t.Errorf("zero merge should still cost 1, got %d", m.Units())
	}
	if ShardMergePostingsPerUnit <= PostingsPerUnit {
		t.Errorf("merging (%d/unit) should be cheaper than postings visits (%d/unit)",
			ShardMergePostingsPerUnit, PostingsPerUnit)
	}
}

func TestChargeIndexCacheLoad(t *testing.T) {
	lines := 100000
	build := NewMeter()
	if err := build.ChargeIndexBuild(lines); err != nil {
		t.Fatal(err)
	}
	load := NewMeter()
	if err := load.ChargeIndexCacheLoad(lines); err != nil {
		t.Fatal(err)
	}
	if load.Units()*5 >= build.Units() {
		t.Errorf("cache load charged %d units vs build %d — load must be much cheaper",
			load.Units(), build.Units())
	}
	m := NewMeter()
	if err := m.ChargeIndexCacheLoad(0); err != nil {
		t.Fatal(err)
	}
	if m.Units() != 1 {
		t.Errorf("zero-line load should still cost 1, got %d", m.Units())
	}
}

func TestChargeDumpCacheLoad(t *testing.T) {
	lines := 100000
	scan := NewMeter()
	if err := scan.ChargeLines(lines); err != nil {
		t.Fatal(err)
	}
	load := NewMeter()
	if err := load.ChargeDumpCacheLoad(lines); err != nil {
		t.Fatal(err)
	}
	if load.Units()*5 >= scan.Units() {
		t.Errorf("dump load charged %d units vs disassembly %d — load must be much cheaper",
			load.Units(), scan.Units())
	}
	idx := NewMeter()
	if err := idx.ChargeIndexCacheLoad(lines); err != nil {
		t.Fatal(err)
	}
	if load.Units() > idx.Units() {
		t.Errorf("dump load (%d units) should not cost more than the index-section decode (%d units)",
			load.Units(), idx.Units())
	}
	m := NewMeter()
	if err := m.ChargeDumpCacheLoad(0); err != nil {
		t.Fatal(err)
	}
	if m.Units() != 1 {
		t.Errorf("zero-line load should still cost 1, got %d", m.Units())
	}
}

func TestChargeBundleStoreLoad(t *testing.T) {
	lines := 100000
	disk := NewMeter()
	if err := disk.ChargeDumpCacheLoad(lines); err != nil {
		t.Fatal(err)
	}
	store := NewMeter()
	if err := store.ChargeBundleStoreLoad(lines); err != nil {
		t.Fatal(err)
	}
	if store.Units() >= disk.Units() {
		t.Errorf("store load charged %d units vs disk dump load %d — memory must be cheaper",
			store.Units(), disk.Units())
	}
	m := NewMeter()
	if err := m.ChargeBundleStoreLoad(0); err != nil {
		t.Fatal(err)
	}
	if m.Units() != 1 {
		t.Errorf("zero-line store load should still cost 1, got %d", m.Units())
	}
	// The in-memory rate must respect the overall cheapness ordering:
	// disassembly > disk dump load > store load.
	scan := NewMeter()
	if err := scan.ChargeLines(lines); err != nil {
		t.Fatal(err)
	}
	if store.Units()*10 >= scan.Units() {
		t.Errorf("store load %d units vs disassembly %d — must be an order cheaper",
			store.Units(), scan.Units())
	}
}

// TestCancelCheckpoint pins the cooperative-cancellation contract: once
// the poll turns true, Charge fails within one checkpoint
// (CancelCheckpointUnits of additional work), the cancellation latches,
// and the units charged up to the checkpoint are kept.
func TestCancelCheckpoint(t *testing.T) {
	canceled := false
	m := NewMeter()
	m.SetCancel(func() bool { return canceled })

	// Before the flag flips the meter charges freely and polls on the
	// checkpoint cadence.
	for i := 0; i < 100; i++ {
		if err := m.Charge(1); err != nil {
			t.Fatalf("charge %d with cancel=false: %v", i, err)
		}
	}
	if m.CancelPolls() == 0 {
		t.Fatal("no cancellation polls over 100 units")
	}
	if m.Canceled() {
		t.Fatal("meter latched canceled before the poll turned true")
	}

	canceled = true
	flipAt := m.Units()
	var err error
	charges := 0
	for err == nil {
		err = m.Charge(1)
		charges++
		if charges > CancelCheckpointUnits+1 {
			break
		}
	}
	if err != ErrCanceled {
		t.Fatalf("meter did not cancel within one checkpoint (%d charges): %v", charges, err)
	}
	if got := m.Units() - flipAt; got > CancelCheckpointUnits {
		t.Fatalf("charged %d units past the cancel request, checkpoint is %d", got, CancelCheckpointUnits)
	}
	// Latched: every later charge keeps failing, without re-polling.
	polls := m.CancelPolls()
	if err := m.Charge(1); err != ErrCanceled {
		t.Fatalf("charge after latch = %v, want ErrCanceled", err)
	}
	if m.CancelPolls() != polls {
		t.Fatal("latched meter re-polled the cancel function")
	}
	if !m.Canceled() {
		t.Fatal("Canceled() must report the latch")
	}
}

// TestCancelBigChargeCrossesCheckpoint pins that one oversized charge (a
// whole disassembly pass) still observes the cancel at its end: the
// checkpoint bounds polling frequency, not charge granularity.
func TestCancelBigChargeCrossesCheckpoint(t *testing.T) {
	m := NewMeter()
	m.SetCancel(func() bool { return true })
	if err := m.Charge(10 * CancelCheckpointUnits); err != ErrCanceled {
		t.Fatalf("big charge = %v, want ErrCanceled", err)
	}
}

// TestCancelDoesNotMaskTimeout pins that a meter without a cancel poll
// behaves exactly as before, and that cancellation takes priority over
// the budget only when the poll is actually true.
func TestCancelDoesNotMaskTimeout(t *testing.T) {
	m := NewMeter()
	m.SetBudget(10)
	m.SetCancel(func() bool { return false })
	if err := m.Charge(100); err != ErrTimeout {
		t.Fatalf("budget with false cancel poll = %v, want ErrTimeout", err)
	}
}

func TestCheckpointObserver(t *testing.T) {
	m := NewMeter()
	canceled := false
	m.SetCancel(func() bool { return canceled })
	var samples [][2]int64
	m.SetCheckpointObserver(func(units, delta int64) {
		samples = append(samples, [2]int64{units, delta})
	})
	for i := 0; i < 3; i++ {
		if err := m.Charge(CancelCheckpointUnits); err != nil {
			t.Fatalf("Charge: %v", err)
		}
	}
	want := [][2]int64{{32, 32}, {64, 32}, {96, 32}}
	if len(samples) != len(want) {
		t.Fatalf("samples = %v, want %v", samples, want)
	}
	for i := range want {
		if samples[i] != want[i] {
			t.Fatalf("samples = %v, want %v", samples, want)
		}
	}
	// The observer runs before the cancel poll, so the aborting
	// checkpoint's sample is still recorded.
	canceled = true
	if err := m.Charge(CancelCheckpointUnits); !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if len(samples) != 4 || samples[3] != [2]int64{128, 32} {
		t.Fatalf("aborting checkpoint not observed: %v", samples)
	}
	// Observing must not move the poll counter: it counts cancellation
	// polls, and each checkpoint above ran exactly one.
	if m.CancelPolls() != 4 {
		t.Fatalf("CancelPolls = %d, want 4", m.CancelPolls())
	}
}

func TestObserverOnlyMeterDoesNotCountPolls(t *testing.T) {
	m := NewMeter()
	calls := 0
	m.SetCheckpointObserver(func(units, delta int64) { calls++ })
	if err := m.Charge(CancelCheckpointUnits * 2); err != nil {
		t.Fatalf("Charge: %v", err)
	}
	if calls != 1 {
		t.Fatalf("observer calls = %d, want 1", calls)
	}
	if m.CancelPolls() != 0 {
		t.Fatalf("CancelPolls = %d, want 0 (no cancel poll installed)", m.CancelPolls())
	}
}
