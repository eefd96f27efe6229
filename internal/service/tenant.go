package service

import "sort"

// DefaultTenantName is the tenant jobs land under when they name none.
const DefaultTenantName = "default"

// TenantConfig is the dispatch policy of one tenant — one independent
// analysis stream multiplexed onto the scheduler's shared worker pool.
type TenantConfig struct {
	// Weight is the tenant's dispatch credit per weighted-round-robin
	// round: a weight-3 tenant gets up to three jobs dispatched for every
	// one of a weight-1 tenant while both have work queued. Values < 1
	// count as 1. Idle tenants forfeit their credits — weights shape the
	// ratio under contention, they never hold capacity idle.
	Weight int
}

// tenant is the scheduler-internal queue state of one tenant.
type tenant struct {
	name     string
	cfg      TenantConfig
	queue    []*jobState // pending jobs, FIFO
	reserved int         // submitters between space-wait and append
	credits  int         // remaining dispatch credits this WRR round

	submitted       int64
	dispatched      int64
	requeued        int64
	canceledQueued  int64
	canceledRunning int64
}

// weight resolves the tenant's WRR credit per round.
func (t *tenant) weight() int {
	if t.cfg.Weight < 1 {
		return 1
	}
	return t.cfg.Weight
}

// tenantLocked finds or creates the tenant record for the (normalized)
// name. Unknown tenants are admitted under the zero TenantConfig — the
// open-enrollment policy a service fronting many independent submitters
// needs — while names present in Config.Tenants use their configured
// policy. Caller holds s.mu.
func (s *Scheduler) tenantLocked(name string) *tenant {
	if name == "" {
		name = DefaultTenantName
	}
	if t, ok := s.tenants[name]; ok {
		return t
	}
	cfg := s.cfg.Tenants[name]
	t := &tenant{name: name, cfg: cfg}
	t.credits = t.weight()
	s.tenants[name] = t
	s.order = append(s.order, name)
	sort.Strings(s.order)
	return t
}

// popWRR dispatches the next job under deterministic weighted round-robin
// and returns nil when no tenant has work queued. Tenants are visited in
// sorted-name order from a persistent cursor; a tenant with queued work
// is served while it has credits, then the cursor moves on. When a full
// cycle finds queued work only at credit-exhausted tenants, every
// tenant's credits refill and a new round begins — so the dispatch
// sequence is a pure function of the queue contents, never of timing or
// worker count. Caller holds s.mu.
func (s *Scheduler) popWRR() *jobState {
	n := len(s.order)
	if n == 0 {
		return nil
	}
	for sweep := 0; sweep < 2; sweep++ {
		for i := 0; i < n; i++ {
			t := s.tenants[s.order[s.cursor%n]]
			if len(t.queue) > 0 && t.credits > 0 {
				t.credits--
				st := t.queue[0]
				t.queue = t.queue[1:]
				if t.credits == 0 {
					s.cursor = (s.cursor + 1) % n
				}
				t.dispatched++
				s.dispatchSeq++
				st.dispatchSeq = s.dispatchSeq
				return st
			}
			s.cursor = (s.cursor + 1) % n
		}
		// Every queued tenant is out of credits: start a new WRR round.
		for _, name := range s.order {
			t := s.tenants[name]
			t.credits = t.weight()
		}
	}
	return nil
}
