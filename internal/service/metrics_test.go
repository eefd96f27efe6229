package service

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"backdroid/internal/core"
	"backdroid/internal/obs"
	"backdroid/internal/service/journal"
)

// TestRegistryPin pins the scheduler's whole metric surface for a fixed
// job sequence on one worker: a cold run, a store hit (same app under
// a different options fingerprint, so the report store misses) and a
// settled hit. Every series id and value is listed, so a refactor of
// any counter path that moves a number or drops a series fails here.
func TestRegistryPin(t *testing.T) {
	jnl, _, err := journal.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer jnl.Close()
	reports := NewReportStore(0)
	reports.AttachJournal(jnl)
	s := New(Config{Workers: 1, Store: NewBundleStore(0), Reports: reports, Journal: jnl})
	defer s.Close()

	spec := testSpec(0)
	deeper := core.DefaultOptions()
	deeper.MaxDepth++
	for i, job := range []Job{
		{Name: spec.Name, Tenant: "acme", Spec: "spec:0", Source: sourceFor(spec), RunBackDroid: true},
		{Name: spec.Name, Tenant: "acme", Spec: "spec:0", Source: sourceFor(spec), RunBackDroid: true, Options: &deeper},
		{Name: spec.Name, Tenant: "beta", Spec: "spec:0", Source: sourceFor(spec), RunBackDroid: true},
	} {
		id, err := s.Submit(job)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Wait(id)
		if err != nil {
			t.Fatal(err)
		}
		st := res.BackDroid.Stats
		if got := [3]int{st.BundleStoreHits, st.BundleStoreMisses, st.SettledLookups}; got != [3][3]int{{0, 1, 0}, {1, 0, 0}, {0, 0, 1}}[i] {
			t.Fatalf("job %d: store hits/misses, settled lookups = %v", i, got)
		}
	}

	got := make(map[string]int64)
	for _, m := range s.Metrics().Snapshot() {
		got[m.ID()] = m.Value
	}
	want := map[string]int64{
		`backdroid_delta_bases`:                                  2,
		`backdroid_dispatched_total`:                             3,
		`backdroid_job_panics_total`:                             0,
		`backdroid_journal_appends_total`:                        11,
		`backdroid_journal_bytes`:                                1597,
		`backdroid_journal_compactions_total`:                    0,
		`backdroid_journal_dropped_bytes`:                        0,
		`backdroid_journal_pending`:                              0,
		`backdroid_journal_records`:                              11,
		`backdroid_journal_recovered_total`:                      0,
		`backdroid_journal_reports`:                              2,
		`backdroid_journal_units`:                                9,
		`backdroid_reports_bytes`:                                1254,
		`backdroid_reports_damaged_total`:                        0,
		`backdroid_reports_entries`:                              2,
		`backdroid_reports_evictions_total`:                      0,
		`backdroid_reports_hits_total`:                           1,
		`backdroid_reports_journaled_total`:                      2,
		`backdroid_reports_misses_total`:                         2,
		`backdroid_reports_puts_total`:                           2,
		`backdroid_reports_recovered_total`:                      0,
		`backdroid_reports_refreshes_total`:                      0,
		`backdroid_reports_skipped_total`:                        0,
		`backdroid_store_bytes`:                                  47212,
		`backdroid_store_drops_total`:                            0,
		`backdroid_store_entries`:                                1,
		`backdroid_store_evictions_total`:                        0,
		`backdroid_store_hits_total`:                             1,
		`backdroid_store_misses_total`:                           1,
		`backdroid_store_puts_total`:                             1,
		`backdroid_store_refreshes_total`:                        0,
		`backdroid_tenant_canceled_queued_total{tenant="acme"}`:  0,
		`backdroid_tenant_canceled_queued_total{tenant="beta"}`:  0,
		`backdroid_tenant_canceled_running_total{tenant="acme"}`: 0,
		`backdroid_tenant_canceled_running_total{tenant="beta"}`: 0,
		`backdroid_tenant_dispatched_total{tenant="acme"}`:       2,
		`backdroid_tenant_dispatched_total{tenant="beta"}`:       1,
		`backdroid_tenant_queued{tenant="acme"}`:                 0,
		`backdroid_tenant_queued{tenant="beta"}`:                 0,
		`backdroid_tenant_requeued_total{tenant="acme"}`:         0,
		`backdroid_tenant_requeued_total{tenant="beta"}`:         0,
		`backdroid_tenant_submitted_total{tenant="acme"}`:        2,
		`backdroid_tenant_submitted_total{tenant="beta"}`:        1,
		`backdroid_tenant_weight{tenant="acme"}`:                 1,
		`backdroid_tenant_weight{tenant="beta"}`:                 1,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("registry snapshot differs from the pin:\n%s", diffSeries(got, want))
	}
}

// TestRegistryPinFleet checks a 2-node fleet on one shared store. Two
// sequential submits of one app are a cold miss and put, then a hit,
// whichever node pulls each, so the store series are pinned by value.
// The per-node series are pinned by id only: which node pulls a job
// depends on scheduling.
func TestRegistryPinFleet(t *testing.T) {
	s := New(Config{Nodes: 2, Store: NewBundleStore(0)})
	defer s.Close()
	spec := testSpec(0)
	for i := 0; i < 2; i++ {
		id, err := s.Submit(Job{Name: spec.Name, Source: sourceFor(spec), RunBackDroid: true})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Wait(id); err != nil {
			t.Fatal(err)
		}
	}
	store := make(map[string]int64)
	var ids []string
	for _, m := range s.Metrics().Snapshot() {
		switch {
		case strings.HasPrefix(m.Name, "backdroid_store_"):
			store[m.ID()] = m.Value
		case strings.HasPrefix(m.Name, "backdroid_node_"):
			ids = append(ids, m.ID())
		}
	}
	wantStore := map[string]int64{
		`backdroid_store_bytes`:           47212,
		`backdroid_store_drops_total`:     0,
		`backdroid_store_entries`:         1,
		`backdroid_store_evictions_total`: 0,
		`backdroid_store_hits_total`:      1,
		`backdroid_store_misses_total`:    1,
		`backdroid_store_puts_total`:      1,
		`backdroid_store_refreshes_total`: 0,
	}
	if !reflect.DeepEqual(store, wantStore) {
		t.Errorf("store series differ from the pin:\n%s", diffSeries(store, wantStore))
	}
	var want []string
	for _, name := range []string{"beats_total", "dropped_beats_total", "jobs_total", "live", "muted", "units"} {
		for _, node := range []string{"1", "2"} {
			want = append(want, obs.Metric{Name: "backdroid_node_" + name, Labels: []obs.Label{obs.L("node", node)}}.ID())
		}
	}
	sort.Strings(ids)
	sort.Strings(want)
	if !reflect.DeepEqual(ids, want) {
		t.Errorf("node series = %v\nwant %v", ids, want)
	}
}

// diffSeries lists the ids whose values differ between two snapshots.
func diffSeries(got, want map[string]int64) string {
	var lines []string
	for id, v := range got {
		if w, ok := want[id]; !ok || w != v {
			lines = append(lines, fmt.Sprintf("got  %s = %d", id, v))
		}
	}
	for id, w := range want {
		if v, ok := got[id]; !ok || w != v {
			lines = append(lines, fmt.Sprintf("want %s = %d", id, w))
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}
