// Package obs is the unified observability layer: a pull-model metrics
// registry each service subsystem's counters are collected into, a
// deterministic simtime-anchored span trace, and a Chrome trace-event
// exporter. The package is a leaf — it imports nothing from the rest of
// the repo — so every layer (simtime, core, service, the CLIs) can feed
// it without import cycles.
package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
)

// Kind types a metric.
type Kind int

// Metric kinds, in Prometheus terms.
const (
	Counter Kind = iota
	Gauge
	HistogramKind
)

func (k Kind) String() string {
	switch k {
	case Counter:
		return "counter"
	case Gauge:
		return "gauge"
	case HistogramKind:
		return "histogram"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Label is one name=value metric dimension.
type Label struct {
	Key   string
	Value string
}

// L builds a label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Metric is one registered time series at snapshot time. Counter and
// gauge values are int64 — every stat in this codebase is an integer
// count of entries, bytes or charged units.
type Metric struct {
	Name   string
	Labels []Label // sorted by key
	Kind   Kind
	Value  int64        // Counter / Gauge
	Hist   HistSnapshot // HistogramKind
}

// ID renders the metric's identity as name{k="v",...} — the stable key
// the snapshot sorts and diffs by.
func (m Metric) ID() string {
	if len(m.Labels) == 0 {
		return m.Name
	}
	var b strings.Builder
	b.WriteString(m.Name)
	b.WriteByte('{')
	for i, l := range m.Labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		labelEscaper.WriteString(&b, strings.ToValidUTF8(l.Value, "\uFFFD"))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// labelEscaper escapes a label value the way text format 0.0.4 allows:
// backslash, double quote and newline only. Every other byte passes
// through, so a tab or a non-ASCII rune stays literal.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// Gather collects metrics during one snapshot; collectors emit into it.
type Gather struct {
	metrics []Metric
}

func (g *Gather) add(name string, kind Kind, v int64, hist HistSnapshot, labels []Label) {
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	g.metrics = append(g.metrics, Metric{Name: name, Labels: ls, Kind: kind, Value: v, Hist: hist})
}

// Counter emits a monotonically-increasing count.
func (g *Gather) Counter(name string, v int64, labels ...Label) {
	g.add(name, Counter, v, HistSnapshot{}, labels)
}

// Gauge emits a point-in-time level.
func (g *Gather) Gauge(name string, v int64, labels ...Label) {
	g.add(name, Gauge, v, HistSnapshot{}, labels)
}

// Histogram emits a histogram's snapshot.
func (g *Gather) Histogram(name string, h *Histogram, labels ...Label) {
	g.add(name, HistogramKind, 0, h.Snapshot(), labels)
}

// Registry is the one source of truth for metrics: subsystems register
// a collector once, and every surface (Prometheus text, the stats JSON,
// the stdin stats lines) renders from the same Snapshot. Collection is
// pull-model — a collector reads its subsystem's live counters at
// snapshot time — so registering costs nothing on the hot path.
type Registry struct {
	mu         sync.Mutex
	collectors []func(*Gather)
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Register adds a collector. Collectors run in registration order on
// every Snapshot; each must be safe to call concurrently with the
// subsystem it reads, taking that subsystem's own lock to read its
// live counters.
func (r *Registry) Register(collect func(*Gather)) {
	r.mu.Lock()
	r.collectors = append(r.collectors, collect)
	r.mu.Unlock()
}

// Snapshot runs every collector and returns the sorted metric set.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	cs := append(make([]func(*Gather), 0, len(r.collectors)), r.collectors...)
	r.mu.Unlock()
	var g Gather
	for _, c := range cs {
		c(&g)
	}
	s := Snapshot(g.metrics)
	sort.Slice(s, func(i, j int) bool {
		if s[i].Name != s[j].Name {
			return s[i].Name < s[j].Name
		}
		return s[i].ID() < s[j].ID()
	})
	return s
}

// Snapshot is a sorted point-in-time view of every registered metric.
type Snapshot []Metric

// Get returns the value of the named counter or gauge; ok=false when
// absent. Labels must match exactly (order-insensitive).
func (s Snapshot) Get(name string, labels ...Label) (int64, bool) {
	want := Metric{Name: name, Labels: append([]Label(nil), labels...)}
	sort.Slice(want.Labels, func(i, j int) bool { return want.Labels[i].Key < want.Labels[j].Key })
	id := want.ID()
	for _, m := range s {
		if m.ID() == id {
			return m.Value, true
		}
	}
	return 0, false
}

// Delta subtracts prev from s metric-by-metric (absent-in-prev counts
// as zero) and returns the changed counters and gauges — the
// snapshot-diff tests assert on. Histograms diff by total count.
func (s Snapshot) Delta(prev Snapshot) Snapshot {
	prevVals := make(map[string]int64, len(prev))
	for _, m := range prev {
		v := m.Value
		if m.Kind == HistogramKind {
			v = m.Hist.Count
		}
		prevVals[m.ID()] = v
	}
	var out Snapshot
	for _, m := range s {
		v := m.Value
		if m.Kind == HistogramKind {
			v = m.Hist.Count
		}
		if d := v - prevVals[m.ID()]; d != 0 {
			dm := m
			dm.Value = d
			dm.Hist = HistSnapshot{}
			if dm.Kind == HistogramKind {
				dm.Kind = Counter
			}
			out = append(out, dm)
		}
	}
	return out
}

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format (version 0.0.4): one # TYPE header per metric name, histograms
// expanded into cumulative _bucket/_sum/_count series.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	lastName := ""
	for _, m := range s {
		if m.Name != lastName {
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", m.Name, m.Kind); err != nil {
				return err
			}
			lastName = m.Name
		}
		switch m.Kind {
		case HistogramKind:
			cum := int64(0)
			for _, b := range m.Hist.Buckets {
				cum += b.Count
				if _, err := fmt.Fprintf(w, "%s %d\n",
					promID(m.Name+"_bucket", append(m.Labels, Label{Key: "le", Value: fmt.Sprint(b.Le)})), cum); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%s %d\n",
				promID(m.Name+"_bucket", append(m.Labels, Label{Key: "le", Value: "+Inf"})), m.Hist.Count); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s %d\n", promID(m.Name+"_sum", m.Labels), m.Hist.Sum); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s %d\n", promID(m.Name+"_count", m.Labels), m.Hist.Count); err != nil {
				return err
			}
		default:
			if _, err := fmt.Fprintf(w, "%s %d\n", m.ID(), m.Value); err != nil {
				return err
			}
		}
	}
	return nil
}

func promID(name string, labels []Label) string {
	return Metric{Name: name, Labels: labels}.ID()
}

// WritePrometheus snapshots the registry and renders it; the /metrics
// handler's one-call surface.
func (r *Registry) WritePrometheus(w io.Writer) error {
	return r.Snapshot().WritePrometheus(w)
}
