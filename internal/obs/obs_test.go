package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	for _, v := range []int64{0, 1, 1, 3, 4, 100, -5} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 7 {
		t.Fatalf("count = %d, want 7", s.Count)
	}
	if s.Sum != 0+1+1+3+4+100+0 {
		t.Fatalf("sum = %d", s.Sum)
	}
	want := []HistBucket{
		{Le: 0, Count: 2},   // 0 and clamped -5
		{Le: 1, Count: 2},   // 1, 1
		{Le: 3, Count: 1},   // 3
		{Le: 7, Count: 1},   // 4
		{Le: 127, Count: 1}, // 100
	}
	if len(s.Buckets) != len(want) {
		t.Fatalf("buckets = %+v, want %+v", s.Buckets, want)
	}
	for i := range want {
		if s.Buckets[i] != want[i] {
			t.Fatalf("bucket %d = %+v, want %+v", i, s.Buckets[i], want[i])
		}
	}
}

func TestHistogramOrderIndependent(t *testing.T) {
	var a, b Histogram
	vals := []int64{9, 2, 2, 77, 0, 13, 9}
	for _, v := range vals {
		a.Observe(v)
	}
	for i := len(vals) - 1; i >= 0; i-- {
		b.Observe(vals[i])
	}
	sa, sb := a.Snapshot(), b.Snapshot()
	ja, _ := json.Marshal(sa)
	jb, _ := json.Marshal(sb)
	if !bytes.Equal(ja, jb) {
		t.Fatalf("snapshots differ:\n%s\n%s", ja, jb)
	}
}

func TestRegistrySnapshotSortedAndStable(t *testing.T) {
	r := NewRegistry()
	var h Histogram
	h.Observe(5)
	r.Register(func(g *Gather) {
		g.Gauge("z_gauge", 7)
		g.Counter("a_total", 3, L("tenant", "beta"))
		g.Counter("a_total", 1, L("tenant", "alpha"))
		g.Histogram("h_units", &h)
	})
	s := r.Snapshot()
	ids := make([]string, len(s))
	for i, m := range s {
		ids[i] = m.ID()
	}
	want := []string{`a_total{tenant="alpha"}`, `a_total{tenant="beta"}`, "h_units", "z_gauge"}
	if len(ids) != len(want) {
		t.Fatalf("ids = %v", ids)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("ids = %v, want %v", ids, want)
		}
	}
	if v, ok := s.Get("a_total", L("tenant", "beta")); !ok || v != 3 {
		t.Fatalf("Get a_total{beta} = %d,%v", v, ok)
	}
	if _, ok := s.Get("missing"); ok {
		t.Fatal("Get(missing) should be absent")
	}
}

func TestSnapshotDelta(t *testing.T) {
	r := NewRegistry()
	n := int64(1)
	var h Histogram
	h.Observe(2)
	r.Register(func(g *Gather) {
		g.Counter("c_total", n)
		g.Gauge("lvl", 10)
		g.Histogram("h", &h)
	})
	prev := r.Snapshot()
	n = 5
	h.Observe(9)
	h.Observe(9)
	d := r.Snapshot().Delta(prev)
	if len(d) != 2 {
		t.Fatalf("delta = %+v", d)
	}
	if v, ok := d.Get("c_total"); !ok || v != 4 {
		t.Fatalf("c_total delta = %d,%v", v, ok)
	}
	if v, ok := d.Get("h"); !ok || v != 2 {
		t.Fatalf("h delta = %d,%v", v, ok)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	var h Histogram
	h.Observe(1)
	h.Observe(6)
	r.Register(func(g *Gather) {
		g.Counter("jobs_total", 4, L("tenant", "t1"))
		g.Counter("jobs_total", 2, L("tenant", "t2"))
		// Hostile label values: text format 0.0.4 escapes only backslash,
		// double quote and newline, and needs valid UTF-8.
		g.Counter("jobs_total", 1, L("tenant", "a\tb"))
		g.Counter("jobs_total", 1, L("tenant", "bad\xffutf8"))
		g.Counter("jobs_total", 1, L("tenant", "q\"\\\n"))
		g.Gauge("queue_depth", 3)
		g.Histogram("phase_units", &h, L("phase", "slice"))
	})
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	want := "# TYPE jobs_total counter\n" +
		"jobs_total{tenant=\"a\tb\"} 1\n" +
		"jobs_total{tenant=\"bad\uFFFDutf8\"} 1\n" +
		`jobs_total{tenant="q\"\\\n"} 1` + "\n" +
		`jobs_total{tenant="t1"} 4
jobs_total{tenant="t2"} 2
# TYPE phase_units histogram
phase_units_bucket{phase="slice",le="1"} 1
phase_units_bucket{phase="slice",le="7"} 2
phase_units_bucket{phase="slice",le="+Inf"} 2
phase_units_sum{phase="slice"} 7
phase_units_count{phase="slice"} 2
# TYPE queue_depth gauge
queue_depth 3
`
	if got != want {
		t.Fatalf("prometheus text:\n%s\nwant:\n%s", got, want)
	}
}

func sampleTrace() *Trace {
	tr := NewTrace()
	tr.Add(Span{Job: 2, Sub: 0, Name: "sink", Cat: "engine", Start: 40, Dur: 10, Node: 1,
		Args: []Arg{{Key: "pos", Value: "3"}}})
	tr.Add(Span{Job: 1, Sub: 33, Name: "steal-claim", Cat: "sched", Start: 0, Dur: 8, Node: 2})
	tr.Add(Span{Job: 1, Sub: 0, Name: "disassembly", Cat: "engine", Start: 0, Dur: 500, Node: 0})
	tr.Add(Span{Job: 1, Sub: 0, Name: "queued", Cat: "sched", Start: 0, Dur: Instant,
		Args: []Arg{{Key: "tenant", Value: "t1"}}})
	tr.AddCounter(CounterSample{Job: 1, Sub: 0, Node: 0, TS: 32, Value: 32})
	tr.AddCounter(CounterSample{Job: 1, Sub: 0, Node: 0, TS: 64, Value: 64})
	return tr
}

func TestWriteChromeValidAndCanonical(t *testing.T) {
	var a bytes.Buffer
	if err := WriteChrome(&a, sampleTrace()); err != nil {
		t.Fatal(err)
	}
	// Same logical content recorded in a different order and on
	// different nodes must export byte-identically.
	tr := NewTrace()
	for _, s := range sampleTrace().Spans() {
		s.Node = 9 - s.Node
		tr.Add(s)
	}
	cs := sampleTrace().Counters()
	for i := len(cs) - 1; i >= 0; i-- {
		tr.AddCounter(cs[i])
	}
	var b bytes.Buffer
	if err := WriteChrome(&b, tr); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("chrome export not canonical:\n%s\n---\n%s", a.String(), b.String())
	}

	var doc struct {
		TraceEvents []struct {
			Name string          `json:"name"`
			Ph   string          `json:"ph"`
			Pid  int64           `json:"pid"`
			Tid  int64           `json:"tid"`
			TS   *int64          `json:"ts"`
			Dur  *int64          `json:"dur"`
			Args json.RawMessage `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(a.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, a.String())
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no events")
	}
	var nX, nI, nC, nM int
	for _, e := range doc.TraceEvents {
		if e.Name == "" || e.Ph == "" {
			t.Fatalf("event missing name/ph: %+v", e)
		}
		switch e.Ph {
		case "X":
			if e.TS == nil || e.Dur == nil {
				t.Fatalf("X event missing ts/dur: %+v", e)
			}
			nX++
		case "i":
			nI++
		case "C":
			nC++
		case "M":
			nM++
		}
	}
	if nX != 3 || nI != 1 || nC != 2 || nM < 3 {
		t.Fatalf("event mix X=%d i=%d C=%d M=%d", nX, nI, nC, nM)
	}
	if !strings.Contains(a.String(), `"chunk@32"`) {
		t.Fatalf("missing chunk thread name:\n%s", a.String())
	}
	if strings.Contains(a.String(), "node") {
		t.Fatalf("export must not encode node placement:\n%s", a.String())
	}
}

func TestTraceFilter(t *testing.T) {
	tr := sampleTrace()
	f := tr.Filter(1)
	for _, s := range f.Spans() {
		if s.Job != 1 {
			t.Fatalf("filter leaked job %d", s.Job)
		}
	}
	if len(f.Spans()) != 3 || len(f.Counters()) != 2 {
		t.Fatalf("filter sizes: %d spans %d counters", len(f.Spans()), len(f.Counters()))
	}
}
