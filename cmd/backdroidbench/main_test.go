package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"
)

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the command runs %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, command %q", i, w.Name, workloads[i].name)
		}
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range doc.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range doc.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// smoke runs one workload at one round of one step.
func smoke(t *testing.T, workload string, seed int64, trace bool) (*result, string) {
	t.Helper()
	var out strings.Builder
	res, err := run(&out, config{workload: workload, seed: seed, seconds: 0.01, rounds: 1, trace: trace, workdir: t.TempDir()})
	if err != nil {
		t.Fatalf("%s trace=%t: %v", workload, trace, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("%s trace=%t: correct=%t failed=%d of %d\n%s", workload, trace, res.Correct, res.Failed, res.Attempted, out.String())
	}
	if !strings.Contains(out.String(), "fail_rate=0 ") {
		t.Errorf("%s trace=%t: no zero fail_rate line\n%s", workload, trace, out.String())
	}
	return res, out.String()
}

func checkMetrics(t *testing.T, what string, res *result, out string, want map[string]string) {
	t.Helper()
	for name, unit := range want {
		m, ok := res.Metrics[name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", what, name)
		case m.Unit != unit:
			t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", what, name, m.Unit, unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: metric %s = %v", what, name, m.Value)
		case !strings.Contains(out, name):
			t.Errorf("%s: metric %s not in the readable report", what, name)
		}
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%s: %d metrics printed, BENCHMARK.json declares %d", what, len(res.Metrics), len(want))
	}
}

// TestSmoke runs every workload untraced and traced at one round of one
// step: every declared metric is printed with its unit, no job fails, and
// the charged units repeat exactly on the workloads whose scheduling
// cannot change them.
func TestSmoke(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, out := smoke(t, w.name, 1, false)
			checkMetrics(t, w.name+" trace=0", res, out, endToEnd)
			if w.name != "heavy-tail" { // steal decisions depend on timing
				again, _ := smoke(t, w.name, 2, false)
				if a, b := res.Metrics["sim_units_per_app"].Value, again.Metrics["sim_units_per_app"].Value; a != b {
					t.Errorf("sim_units_per_app %v, then %v", a, b)
				}
			}
			res, out = smoke(t, w.name, 1, true)
			checkMetrics(t, w.name+" trace=1", res, out, perLayer)
		})
	}
}

// TestCorruptReferenceIsAFailure damages one version's reference encoding
// and checks that each job of that version counts as failed.
func TestCorruptReferenceIsAFailure(t *testing.T) {
	wl, err := lookupWorkload("heavy-tail")
	if err != nil {
		t.Fatal(err)
	}
	b := &bench{cfg: config{seed: 1}, rng: rand.New(rand.NewSource(1)), ref: newReference()}
	defer b.reset()
	if err := wl.setup(b); err != nil {
		t.Fatal(err)
	}
	v := b.apps[1]
	v.ref = append([]byte(nil), v.ref...)
	v.ref[len(v.ref)/2] ^= 0xff
	if _, err := b.round(wl, 2, false); err != nil {
		t.Fatal(err)
	}
	if want := 2 * len(b.apps); b.attempted != want {
		t.Errorf("attempted %d jobs, want %d", b.attempted, want)
	}
	if b.failed != 2 {
		t.Errorf("failed = %d, want 2 (one per burst)", b.failed)
	}
	if len(b.errs) == 0 || !strings.Contains(b.errs[0].Error(), v.name) {
		t.Errorf("failure messages %v do not name %s", b.errs, v.name)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{11, 1, 10, 2, 9, 3, 8, 4, 7, 5, 6}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.25, 3.5}, {0.5, 6}, {0.9, 10}, {1, 11},
	} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 11 {
		t.Error("quantile reordered its input")
	}
	if got := quantile([]float64{1, 2, 3, 4}, 0.5); got != 2.5 {
		t.Errorf("even-length median = %v, want 2.5", got)
	}
	if got := quantile([]float64{7}, 0.9); got != 7 {
		t.Errorf("single-sample p90 = %v, want 7", got)
	}
	if got := quantile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("empty quantile = %v, want NaN", got)
	}
}
