// Metrics registration: the scheduler's one collector, reading the live
// counters of every subsystem — control plane, tenants, fleet and its
// nodes, bundle/report stores, the journal — into registry series. The
// registry is pull-model, so this file is the only place the metric
// names exist and the only reader of the store counters: /metrics, the
// stats JSON and the stdin stats lines all render from the same
// Snapshot and from nothing else, and the api parity test walks the
// snapshot to prove no series is missing from any surface.
package service

import (
	"fmt"

	"backdroid/internal/obs"
)

// registerMetrics installs the scheduler's collector into the resolved
// registry. Called once from New; the collector reads live counters at
// snapshot time under each subsystem's own lock, so registration costs
// nothing on the dispatch path.
func (s *Scheduler) registerMetrics() {
	s.metrics.Register(func(g *obs.Gather) {
		s.mu.Lock()
		g.Counter("backdroid_dispatched_total", s.dispatchSeq)
		for _, name := range s.order {
			t := s.tenants[name]
			l := obs.L("tenant", t.name)
			g.Gauge("backdroid_tenant_weight", int64(t.weight()), l)
			g.Gauge("backdroid_tenant_queued", int64(len(t.queue)), l)
			g.Counter("backdroid_tenant_submitted_total", t.submitted, l)
			g.Counter("backdroid_tenant_dispatched_total", t.dispatched, l)
			g.Counter("backdroid_tenant_requeued_total", t.requeued, l)
			g.Counter("backdroid_tenant_canceled_queued_total", t.canceledQueued, l)
			g.Counter("backdroid_tenant_canceled_running_total", t.canceledRunning, l)
		}
		s.mu.Unlock()
		g.Counter("backdroid_journal_units", s.journalUnits.Load())
		g.Counter("backdroid_job_panics_total", s.panics.Load())
		if s.fleet != nil {
			fs := s.fleet.stats()
			g.Gauge("backdroid_fleet_nodes", int64(fs.Nodes))
			g.Gauge("backdroid_fleet_live", int64(fs.Live))
			g.Counter("backdroid_fleet_killed_total", int64(fs.Killed))
			g.Counter("backdroid_fleet_clock_units", fs.Clock)
			g.Counter("backdroid_fleet_handoffs_total", fs.Handoffs)
			g.Counter("backdroid_fleet_expired_leases_total", fs.ExpiredLeases)
			g.Counter("backdroid_fleet_lost_units", fs.LostUnits)
			g.Counter("backdroid_fleet_overhead_units", fs.OverheadUnits)
			g.Counter("backdroid_fleet_steals_total", fs.Steals)
			g.Counter("backdroid_fleet_steal_victims_total", fs.StealVictims)
			g.Counter("backdroid_fleet_stolen_sinks_total", fs.StolenSinks)
			g.Counter("backdroid_fleet_steal_units", fs.StealUnits)
			g.Gauge("backdroid_fleet_makespan_units", fs.MakespanUnits)
			for _, n := range fs.PerNode {
				l := obs.L("node", fmt.Sprint(n.ID))
				g.Gauge("backdroid_node_live", flag(n.State != "dead"), l)
				g.Gauge("backdroid_node_muted", flag(n.State == "muted"), l)
				g.Counter("backdroid_node_units", n.Units, l)
				g.Counter("backdroid_node_jobs_total", n.Jobs, l)
				g.Counter("backdroid_node_beats_total", n.Beats, l)
				g.Counter("backdroid_node_dropped_beats_total", n.Dropped, l)
			}
		}
		if s.cfg.Store != nil {
			s.cfg.Store.stats().emit(g, "backdroid_store", true)
			g.Gauge("backdroid_delta_bases", int64(s.deltaBases()))
		}
		if rs := s.cfg.Reports; rs != nil {
			r := rs.stats()
			r.emit(g, "backdroid_reports", false)
			g.Counter("backdroid_reports_journaled_total", r.Journaled)
			g.Counter("backdroid_reports_skipped_total", r.Skipped)
			g.Counter("backdroid_reports_recovered_total", r.Recovered)
			g.Counter("backdroid_reports_damaged_total", r.Damaged)
		}
		if j := s.cfg.Journal; j != nil {
			js := j.Stats()
			g.Gauge("backdroid_journal_records", js.Records)
			g.Gauge("backdroid_journal_bytes", js.Bytes)
			g.Gauge("backdroid_journal_pending", int64(js.Pending))
			g.Gauge("backdroid_journal_reports", int64(js.Reports))
			g.Counter("backdroid_journal_appends_total", js.Appends)
			g.Counter("backdroid_journal_compactions_total", js.Compactions)
			g.Counter("backdroid_journal_recovered_total", js.Recovered)
			g.Counter("backdroid_journal_dropped_bytes", js.Dropped)
		}
	})
}

// flag renders a boolean state as a 0/1 gauge value.
func flag(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
