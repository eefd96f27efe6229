package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"testing"

	"backdroid/internal/appgen"
	"backdroid/internal/faultinject"
	"backdroid/internal/obs"
)

// traceTailRun drives the trace scenario: the heavy-tail outlier alone
// on a 4-node fleet with an early steal trigger. Chunked at 32 sinks,
// exactly one chunk ([32,48)) is shed and claimed by an idle node;
// which physical node claims it varies run to run — the canonical
// export must not. chunk 0 runs the job unsplit. Returns the exported
// Chrome JSON (nil when untraced), the job's canonical report encoding
// and its charged units.
func traceTailRun(t *testing.T, plan *faultinject.Plan, traced bool, chunk int) ([]byte, []byte, int64) {
	t.Helper()
	spec := appgen.HeavyTailCorpus(appgen.HeavyTailOptions{
		SmallApps: 3, Seed: 99, HeavySinks: 48, HeavySizeMB: 4,
	})[0]
	if chunk == 0 {
		chunk = -1
	}
	var tr *obs.Trace
	if traced {
		tr = obs.NewTrace()
	}
	s := New(Config{
		Nodes:      4,
		Store:      NewBundleStore(0),
		Faults:     plan,
		QueueDepth: 4,
		SinkChunk:  chunk,
		Trace:      tr,
	})
	id, err := s.Submit(Job{Name: spec.Name, Source: sourceFor(spec), RunBackDroid: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Wait(id)
	if err != nil {
		t.Fatalf("job %s: %v", spec.Name, err)
	}
	s.Close()
	var out []byte
	if traced {
		var buf bytes.Buffer
		if err := obs.WriteChrome(&buf, tr); err != nil {
			t.Fatal(err)
		}
		out = buf.Bytes()
	}
	return out, EncodeReport(res.BackDroid), res.BackDroid.Stats.WorkUnits
}

// requireTraceEvents decodes the exported JSON and asserts the named
// event kinds are present, so byte-parity below is never vacuously
// comparing two empty timelines.
func requireTraceEvents(t *testing.T, data []byte, names ...string) {
	t.Helper()
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("exported trace has no events")
	}
	seen := make(map[string]bool, len(doc.TraceEvents))
	for _, ev := range doc.TraceEvents {
		seen[ev.Name] = true
	}
	for _, name := range names {
		if !seen[name] {
			t.Errorf("trace has no %q event", name)
		}
	}
}

// TestTraceDeterministic: two runs of the same corpus through a 4-node
// fleet with sink-chunk stealing engaged export byte-identical Chrome
// JSON, even though the stolen chunk lands on an arbitrary idle node.
// Every anchor in the export is charged simtime quantized at meter
// checkpoints, and physical placement is excluded from the canonical
// form — the two scheduling-dependent sources of divergence.
func TestTraceDeterministic(t *testing.T) {
	a, _, _ := traceTailRun(t, nil, true, 32)
	b, _, _ := traceTailRun(t, nil, true, 32)
	requireTraceEvents(t, a,
		"queued", "dispatch", "steal-shed", "steal-claim", "chunk-merge",
		"backslice", "disassembly")
	if !bytes.Equal(a, b) {
		t.Fatalf("traces of identical runs differ:\nrun1 %d bytes\nrun2 %d bytes\n%s",
			len(a), len(b), firstDiff(a, b))
	}
}

// TestTraceDeterministicUnderChaos: the same byte-parity holds with a
// deterministic fault plan killing the outlier's node mid-run. The kill
// threshold sits past the stolen chunk's total charge, so the fault
// always lands on the main range's attempt; the handoff re-dispatch and
// its backoff all anchor on charged units.
func TestTraceDeterministicUnderChaos(t *testing.T) {
	plan := "kill:job=com.outlier.manysink@600"
	a, _, _ := traceTailRun(t, mustPlan(t, plan), true, 32)
	b, _, _ := traceTailRun(t, mustPlan(t, plan), true, 32)
	requireTraceEvents(t, a, "handoff", "steal-claim", "backslice")
	if !bytes.Equal(a, b) {
		t.Fatalf("chaos traces of identical runs differ:\nrun1 %d bytes\nrun2 %d bytes\n%s",
			len(a), len(b), firstDiff(a, b))
	}
}

// TestTraceZeroCost: tracing is observation only. A traced run's
// canonical report encoding and charged units are identical to an
// untraced run of the same corpus.
func TestTraceZeroCost(t *testing.T) {
	_, encOff, unitsOff := traceTailRun(t, nil, false, 32)
	_, encOn, unitsOn := traceTailRun(t, nil, true, 32)
	if unitsOn != unitsOff {
		t.Errorf("tracing changed the charged units: %d traced, %d untraced", unitsOn, unitsOff)
	}
	if !bytes.Equal(encOn, encOff) {
		t.Errorf("tracing changed the canonical report encoding")
	}
}

// TestTraceGolden pins the dispatch timeline across commits, not just
// across two runs of one tree: the FNV-64a of the canonical Chrome
// export and of the report encoding, plus the charged units, for the
// stolen-chunk path, the re-pend-after-steal handoff and the unsplit
// handoff. A change that moves, adds or drops one span — or one
// charged unit — fails here even when it is self-consistent.
func TestTraceGolden(t *testing.T) {
	const (
		kill       = "kill:job=com.outlier.manysink@600"
		reportHash = 0xf391be93293e201e
	)
	cases := []struct {
		name       string
		plan       string
		chunk      int
		trace      uint64
		traceBytes int
		units      int64
	}{
		{"steal", "", 32, 0xe4090e87dcbbc4ee, 57106, 19609},
		{"steal+kill", kill, 32, 0x24ef84fd0f5ec963, 57656, 19609},
		{"unsplit+kill", kill, 0, 0x99d3f55e7110f5bb, 56532, 19550},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var plan *faultinject.Plan
			if c.plan != "" {
				plan = mustPlan(t, c.plan)
			}
			tr, enc, units := traceTailRun(t, plan, true, c.chunk)
			if got := fnv64a(tr); got != c.trace || len(tr) != c.traceBytes {
				t.Errorf("trace fnv64a %#x (%d B), want %#x (%d B)", got, len(tr), c.trace, c.traceBytes)
			}
			if got := fnv64a(enc); got != reportHash {
				t.Errorf("report fnv64a %#x, want %#x", got, uint64(reportHash))
			}
			if units != c.units {
				t.Errorf("charged units %d, want %d", units, c.units)
			}
		})
	}
}

func fnv64a(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// firstDiff renders the first divergent region of two byte slices for
// failure messages.
func firstDiff(a, b []byte) string {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			lo, hi := i-80, i+80
			if lo < 0 {
				lo = 0
			}
			end1, end2 := hi, hi
			if end1 > len(a) {
				end1 = len(a)
			}
			if end2 > len(b) {
				end2 = len(b)
			}
			return fmt.Sprintf("first divergence at byte %d:\nrun1: ...%s...\nrun2: ...%s...",
				i, a[lo:end1], b[lo:end2])
		}
	}
	return "one trace is a prefix of the other"
}
