package core

import (
	"testing"

	"backdroid/internal/simtime"
	"backdroid/internal/testapps"
)

// TestCancelAbortsAnalysis pins the engine half of in-flight
// cancellation: with the poll already true, Analyze (or New, if the
// cancel lands during preprocessing) returns simtime.ErrCanceled — never
// a TimedOut report — and the meter stops within one checkpoint of the
// work performed so far.
func TestCancelAbortsAnalysis(t *testing.T) {
	app, err := testapps.Fixture()
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Checkpoint = func(int64, int64) bool { return true }
	e, err := New(app, opts)
	if err == nil {
		_, err = e.Analyze()
	}
	if err != simtime.ErrCanceled {
		t.Fatalf("pre-canceled analysis = %v, want simtime.ErrCanceled", err)
	}
}

// TestCancelMidAnalysisStopsAtCheckpoint cancels after a fixed amount of
// charged work and verifies the abort lands within one checkpoint of it,
// with the pre-cancel work still charged (cancellation charges only work
// actually done).
func TestCancelMidAnalysisStopsAtCheckpoint(t *testing.T) {
	app, err := testapps.Fixture()
	if err != nil {
		t.Fatal(err)
	}
	// First, measure the full cost of an uncanceled run.
	full := analyzeFixture(t, DefaultOptions())
	cutoff := full.Stats.WorkUnits / 2
	if cutoff == 0 {
		t.Fatalf("fixture analysis charged %d units, too small to split", full.Stats.WorkUnits)
	}

	opts := DefaultOptions()
	opts.Checkpoint = func(units, _ int64) bool { return units >= cutoff }
	e, err := New(app, opts)
	if err == simtime.ErrCanceled {
		t.Fatalf("cancel poll fired before the engine existed")
	}
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Analyze(); err != simtime.ErrCanceled {
		t.Fatalf("Analyze = %v, want simtime.ErrCanceled", err)
	}
	units := e.Meter().Units()
	if units < cutoff {
		t.Fatalf("canceled at %d units, before the cutoff %d", units, cutoff)
	}
	if over := units - cutoff; over > 2*simtime.CancelCheckpointUnits {
		t.Fatalf("engine ran %d units past the cancel point (checkpoint is %d)",
			over, simtime.CancelCheckpointUnits)
	}
	if polls := e.Meter().CancelPolls(); polls == 0 {
		t.Fatal("no cancellation polls recorded")
	}
}

// TestCancelFalsePollChangesNothing pins the zero-cost contract: a cancel
// poll that never fires leaves the report and the charged work identical
// to a run without one.
func TestCancelFalsePollChangesNothing(t *testing.T) {
	plain := analyzeFixture(t, DefaultOptions())
	opts := DefaultOptions()
	opts.Checkpoint = func(int64, int64) bool { return false }
	polled := analyzeFixture(t, opts)
	if polled.Stats.WorkUnits != plain.Stats.WorkUnits {
		t.Fatalf("cancel poll changed charged work: %d vs %d",
			polled.Stats.WorkUnits, plain.Stats.WorkUnits)
	}
	if len(polled.Sinks) != len(plain.Sinks) {
		t.Fatalf("cancel poll changed the report: %d vs %d sinks",
			len(polled.Sinks), len(plain.Sinks))
	}
	if polled.Stats.CancelPolls == 0 {
		t.Fatal("stats must surface the checkpoint polls")
	}
	if plain.Stats.CancelPolls != 0 {
		t.Fatal("a run without a poll must report zero checkpoint polls")
	}
}
