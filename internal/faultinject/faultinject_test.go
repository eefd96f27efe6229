package faultinject

import (
	"reflect"
	"strings"
	"testing"
)

// TestParseStringRoundTrip pins the spec syntax: every documented
// clause parses, renders canonically and re-parses to the same plan.
func TestParseStringRoundTrip(t *testing.T) {
	specs := []string{
		"kill:node=2@50000",
		"kill:job=heavy:outlier@64",
		"kill:job=heavy:outlier@64x2",
		"beat-drop:node=1@0",
		"corrupt:handoff@1",
		"kill:node=1@10,kill:node=3@20,corrupt:lease@2",
	}
	for _, spec := range specs {
		p, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		p2, err := Parse(p.String())
		if err != nil {
			t.Fatalf("re-Parse(%q): %v", p.String(), err)
		}
		if p.String() != p2.String() {
			t.Fatalf("round trip diverged: %q -> %q -> %q", spec, p.String(), p2.String())
		}
	}
}

// TestParseErrors pins rejection of malformed clauses.
func TestParseErrors(t *testing.T) {
	for _, spec := range []string{
		"", "bogus", "kill:@5", "kill:node=zero@5", "kill:node=0@5",
		"kill:job=@5", "beat-drop:job=x@5", "corrupt:@1", "corrupt:lease@0",
		"fetch-fail", "kill:node=1@-3",
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) accepted a malformed spec", spec)
		}
	}
}

// TestKillNodeFiresAtOdometer pins the odometer keying: the kill fires
// at the first poll at-or-past the threshold, for the right node only,
// and at most Count times.
func TestKillNodeFiresAtOdometer(t *testing.T) {
	p := New(Fault{Kind: KillNode, Node: 2, AtUnit: 100})
	if p.KillNode(2, 99) {
		t.Fatal("fired before the threshold")
	}
	if p.KillNode(1, 500) {
		t.Fatal("fired for the wrong node")
	}
	if !p.KillNode(2, 128) {
		t.Fatal("did not fire at the threshold")
	}
	if p.KillNode(2, 200) {
		t.Fatal("fired twice with Count=1")
	}
	trips := p.Trips()
	if len(trips) != 1 || trips[0].Node != 2 || trips[0].Unit != 128 {
		t.Fatalf("bad trip log: %+v", trips)
	}
}

// TestKillJobCountsAttempts pins the mid-handoff form: Count=2 kills
// the first re-dispatched attempt too, then lets the third run.
func TestKillJobCountsAttempts(t *testing.T) {
	p := New(Fault{Kind: KillJob, Job: "app", AtUnit: 64, Count: 2})
	if p.KillJob(1, "app", 1, 32) {
		t.Fatal("fired below the unit threshold")
	}
	if p.KillJob(1, "other", 1, 500) {
		t.Fatal("fired for the wrong job")
	}
	if !p.KillJob(1, "app", 1, 64) {
		t.Fatal("attempt 1 not killed")
	}
	if !p.KillJob(3, "app", 2, 64) {
		t.Fatal("attempt 2 not killed (mid-handoff)")
	}
	if p.KillJob(4, "app", 3, 9000) {
		t.Fatal("attempt 3 killed beyond Count")
	}
}

// TestDropHeartbeatLatches pins the gray-failure shape: once mute,
// always mute.
func TestDropHeartbeatLatches(t *testing.T) {
	p := New(Fault{Kind: DropHeartbeat, Node: 1, AtUnit: 50})
	if p.DropHeartbeat(1, 49) {
		t.Fatal("dropped before the threshold")
	}
	if !p.DropHeartbeat(1, 50) || !p.DropHeartbeat(1, 51) {
		t.Fatal("drop did not latch")
	}
	if p.DropHeartbeat(2, 500) {
		t.Fatal("dropped the wrong node's beat")
	}
	if got := len(p.Trips()); got != 1 {
		t.Fatalf("latched drop logged %d trips, want 1", got)
	}
}

// TestCorruptAppendOrdinal pins that the damage lands on exactly the
// configured append of the configured kind.
func TestCorruptAppendOrdinal(t *testing.T) {
	p := New(Fault{Kind: CorruptRecord, Record: "handoff", AtUnit: 2})
	if p.CorruptAppend("handoff") {
		t.Fatal("corrupted the first append with ordinal 2")
	}
	if p.CorruptAppend("lease") {
		t.Fatal("corrupted the wrong kind")
	}
	if !p.CorruptAppend("handoff") {
		t.Fatal("second handoff append not corrupted")
	}
	if p.CorruptAppend("handoff") {
		t.Fatal("corrupted a third append")
	}
}

// TestNilPlanIsInert pins the nil-receiver contract the scheduler
// relies on: no nil checks at the poll sites.
func TestNilPlanIsInert(t *testing.T) {
	var p *Plan
	if p.KillNode(1, 1e9) || p.KillJob(1, "x", 1, 1e9) || p.DropHeartbeat(1, 1e9) ||
		p.CorruptAppend("lease") {
		t.Fatal("nil plan injected a fault")
	}
	if p.String() != "" || p.Trips() != nil {
		t.Fatal("nil plan not inert")
	}
}

// TestSeededDeterministic pins that the same seed yields the same
// plan, a different seed (usually) a different one, and every plan
// leaves at least one survivor.
func TestSeededDeterministic(t *testing.T) {
	a := Seeded(42, 4, 10000)
	b := Seeded(42, 4, 10000)
	if !reflect.DeepEqual(a.String(), b.String()) {
		t.Fatalf("same seed diverged: %q vs %q", a, b)
	}
	for seed := int64(0); seed < 32; seed++ {
		p := Seeded(seed, 4, 10000)
		if kills := strings.Count(p.String(), "kill:"); kills < 1 || kills > 3 {
			t.Fatalf("seed %d produced %d kills (want 1..3): %s", seed, kills, p)
		}
	}
}

// FuzzParsePlan: Parse never panics, and every plan it accepts renders
// to a spec that parses back to the same rendering. Seeds are the spec
// examples of the package doc, under testdata/fuzz/FuzzParsePlan.
func FuzzParsePlan(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := Parse(spec)
		if err != nil {
			return
		}
		s := p.String()
		p2, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q) accepted, but its rendering %q fails: %v", spec, s, err)
		}
		if s2 := p2.String(); s2 != s {
			t.Fatalf("Parse(%q) renders %q, which re-renders %q", spec, s, s2)
		}
	})
}
