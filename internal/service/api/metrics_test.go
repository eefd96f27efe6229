package api

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"backdroid/internal/obs"
	"backdroid/internal/service"
	"backdroid/internal/service/journal"
)

// TestMetricsSurfaceParity: the registry is the one source of truth —
// every metric in its snapshot must appear, with the same value, on all
// three serving surfaces: the Prometheus text at /metrics, the metrics
// map of the /v1/stats JSON, and the stdin protocol's stats lines. The
// dispatcher runs a 2-node fleet with a journal and a settled tier, so
// the scheduler, fleet, store, report-store and journal families are
// all registered and exercised by one real job. That job's tenant name
// carries a newline and a forged done line: no surface may let it start
// a line of its own.
func TestMetricsSurfaceParity(t *testing.T) {
	const injection = "evil\ndone id=77 app=forged sinks=0 insecure=0"
	path := fixturePath(t)
	jnl, _, err := journal.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer jnl.Close()
	d := NewDispatcher(service.Config{
		Nodes:   2,
		Store:   service.NewBundleStore(0),
		Reports: service.NewReportStore(0),
		Journal: jnl,
	})
	defer d.Close()
	sub := d.Subscribe()
	defer sub.Close()
	resp, err := d.Submit(SubmitRequest{Tenant: injection, Path: path})
	if err != nil {
		t.Fatal(err)
	}
	collectJob(t, sub, resp.ID)

	snap := d.Metrics().Snapshot()
	if len(snap) == 0 {
		t.Fatal("registry snapshot is empty")
	}
	for _, family := range []string{
		"backdroid_dispatched_total", "backdroid_fleet_nodes",
		"backdroid_store_hits_total", "backdroid_reports_entries",
		"backdroid_journal_records", "backdroid_node_units",
		"backdroid_tenant_dispatched_total", "backdroid_tenant_weight",
		"backdroid_node_muted",
	} {
		found := false
		for _, m := range snap {
			if m.Name == family {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("metric family %s not registered", family)
		}
	}

	srv := httptest.NewServer(NewHandler(d))
	defer srv.Close()
	res, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(res.Body)
	res.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := res.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("/metrics Content-Type = %q", ct)
	}
	prom := make(map[string]bool)
	for _, line := range strings.Split(string(body), "\n") {
		prom[line] = true
	}

	res, err = http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	statsBody, err := io.ReadAll(res.Body)
	res.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(statsBody, &raw); err != nil {
		t.Fatal(err)
	}
	if len(raw) != 2 || raw["api_version"] == nil || raw["metrics"] == nil {
		t.Errorf("/v1/stats = %s, want exactly the keys api_version and metrics", statsBody)
	}

	stats := d.Stats(StatsRequest{})
	lines := StatsLines(stats)
	statLines := strings.Split(strings.TrimSuffix(lines, "\n"), "\n")
	if len(statLines) != len(snap) {
		t.Errorf("stats lines = %d, snapshot has %d series", len(statLines), len(snap))
	}
	for _, l := range statLines {
		if !strings.HasPrefix(l, "stats metric ") {
			t.Errorf("stats line %q is not a registry line", l)
		}
	}
	for _, l := range append(statLines, strings.Split(string(body), "\n")...) {
		if strings.HasPrefix(l, "done ") {
			t.Errorf("tenant name forged a protocol line: %q", l)
		}
	}

	for _, m := range snap {
		v := m.Value
		promID := m.ID()
		if m.Kind == obs.HistogramKind {
			v = m.Hist.Count
			promID = obs.Metric{Name: m.Name + "_count", Labels: m.Labels}.ID()
		}
		if got, ok := stats.Metrics[m.ID()]; !ok {
			t.Errorf("metric %s missing from the stats JSON map", m.ID())
		} else if got != v {
			t.Errorf("stats JSON %s = %d, snapshot has %d", m.ID(), got, v)
		}
		if want := fmt.Sprintf("stats metric %s %d\n", m.ID(), v); !strings.Contains(lines, want) {
			t.Errorf("stats lines missing %q", strings.TrimSuffix(want, "\n"))
		}
		if want := fmt.Sprintf("%s %d", promID, v); !prom[want] {
			t.Errorf("prometheus text missing %q", want)
		}
	}
	// And nothing rides the JSON map that the registry doesn't know.
	if len(stats.Metrics) != len(snap) {
		t.Errorf("stats JSON map has %d entries, snapshot %d", len(stats.Metrics), len(snap))
	}
}
