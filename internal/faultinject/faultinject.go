// Package faultinject provides seeded, deterministic fault plans for
// the service fleet's chaos drills. A Plan is a fixed list of faults
// keyed to simulated time — a node's work-unit odometer, a job
// attempt's charged units, a journal append ordinal — never to wall
// clocks or goroutine timing, so a chaos run is reproducible
// bit-for-bit: the same plan against the same corpus kills the same
// work at the same metered instant every time. The scheduler and
// journal poll the plan at their natural checkpoints; a nil *Plan is
// valid everywhere and injects nothing.
//
// Plans are written (and round-tripped) in a compact spec syntax, one
// fault per comma-separated clause:
//
//	kill:node=2@50000     kill node 2 once the fleet clock reaches unit 50000
//	kill:job=NAME@64      kill whichever node runs job NAME once the
//	                      attempt has charged 64 units (x2 = also kill
//	                      the handed-off second attempt: kill:job=N@64x2)
//	beat-drop:node=1@0    from unit 0 on, node 1 keeps working but its
//	                      heartbeats are dropped (lease expires, node is
//	                      fenced, job re-dispatched)
//	corrupt:handoff@1     flip a byte in the 1st "handoff" journal
//	                      record as it is written to disk
package faultinject

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Kind enumerates the injectable failure modes.
type Kind int

const (
	// KillNode kills a node once the fleet's simtime clock reaches
	// AtUnit: the node stops heartbeating, its running attempt aborts at
	// the next meter checkpoint and it never pulls work again. Clock
	// keying (rather than the node's own odometer) means the kill fires
	// at its simulated instant even if the target node is idle then.
	KillNode Kind = iota + 1
	// KillJob kills whichever node is running the named job once the
	// attempt has charged AtUnit units. Count attempts are killed, so
	// Count=2 also kills the re-dispatched attempt mid-handoff.
	KillJob
	// DropHeartbeat mutes a node's heartbeats from AtUnit on without
	// stopping its work: the coordinator sees an expired lease, fences
	// the node and re-dispatches — the classic gray failure.
	DropHeartbeat
	// CorruptRecord flips one payload byte of the AtUnit'th journal
	// append of the named record kind as it is written to disk. The
	// in-memory state is untouched; the damage surfaces on the next
	// replay, which must degrade to re-dispatch.
	CorruptRecord
)

// Fault is one injected failure, keyed to simulated time.
type Fault struct {
	Kind   Kind
	Node   int    // KillNode, DropHeartbeat: 1-based node id
	Job    string // KillJob: job name
	AtUnit int64  // fleet-clock / odometer / attempt-unit threshold; CorruptRecord: 1-based append ordinal
	Record string // CorruptRecord: journal record kind name
	Count  int    // KillJob: attempts to kill (default 1)
}

// Trip records one fault firing, for assertions and postmortems.
type Trip struct {
	Fault string // the spec clause of the fault that fired
	Node  int    // node involved (0 when not node-keyed)
	Job   string // job involved (empty when not job-keyed)
	Unit  int64  // the odometer / attempt units / ordinal at the trip
}

type fault struct {
	Fault
	fired int
}

// Plan is a set of faults polled by the fleet's checkpoints. All
// methods are safe for concurrent use and safe on a nil receiver (a
// nil plan injects nothing).
type Plan struct {
	mu      sync.Mutex
	faults  []*fault
	trips   []Trip
	appends map[string]int // journal appends seen per record kind
}

// New builds a plan from explicit faults, normalizing defaults
// (Count 1; CorruptRecord ordinal 1).
func New(faults ...Fault) *Plan {
	p := &Plan{appends: make(map[string]int)}
	for _, f := range faults {
		f := f
		if f.Count < 1 {
			f.Count = 1
		}
		if f.Kind == CorruptRecord && f.AtUnit < 1 {
			f.AtUnit = 1
		}
		p.faults = append(p.faults, &fault{Fault: f})
	}
	return p
}

// Parse parses the comma-separated spec syntax documented at the top
// of the package. Parse(p.String()) reproduces the plan.
func Parse(spec string) (*Plan, error) {
	var faults []Fault
	for _, clause := range strings.Split(spec, ",") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		f, err := parseClause(clause)
		if err != nil {
			return nil, err
		}
		faults = append(faults, f)
	}
	if len(faults) == 0 {
		return nil, fmt.Errorf("faultinject: empty plan spec")
	}
	return New(faults...), nil
}

func parseClause(clause string) (Fault, error) {
	var f Fault
	head, rest, _ := strings.Cut(clause, ":")
	// Count suffix: trailing xN on the whole clause.
	cutCount := func(s string) (string, error) {
		if i := strings.LastIndex(s, "x"); i >= 0 {
			if n, err := strconv.Atoi(s[i+1:]); err == nil {
				if n < 1 {
					return "", fmt.Errorf("faultinject: count in %q must be positive", clause)
				}
				f.Count = n
				return s[:i], nil
			}
		}
		return s, nil
	}
	switch head {
	case "kill":
		key, val, ok := strings.Cut(rest, "=")
		if !ok {
			return f, fmt.Errorf("faultinject: %q wants node=N or job=NAME", clause)
		}
		val, err := cutCount(val)
		if err != nil {
			return f, err
		}
		body, at, hasAt := strings.Cut(val, "@")
		if hasAt {
			u, err := strconv.ParseInt(at, 10, 64)
			if err != nil || u < 0 {
				return f, fmt.Errorf("faultinject: bad unit in %q", clause)
			}
			f.AtUnit = u
		}
		switch key {
		case "node":
			f.Kind = KillNode
			n, err := strconv.Atoi(body)
			if err != nil || n < 1 {
				return f, fmt.Errorf("faultinject: bad node id in %q", clause)
			}
			f.Node = n
		case "job":
			f.Kind = KillJob
			if body == "" {
				return f, fmt.Errorf("faultinject: empty job name in %q", clause)
			}
			f.Job = body
		default:
			return f, fmt.Errorf("faultinject: %q wants node=N or job=NAME", clause)
		}
	case "beat-drop":
		key, val, ok := strings.Cut(rest, "=")
		if !ok || key != "node" {
			return f, fmt.Errorf("faultinject: %q wants beat-drop:node=N[@U]", clause)
		}
		body, at, hasAt := strings.Cut(val, "@")
		if hasAt {
			u, err := strconv.ParseInt(at, 10, 64)
			if err != nil || u < 0 {
				return f, fmt.Errorf("faultinject: bad unit in %q", clause)
			}
			f.AtUnit = u
		}
		f.Kind = DropHeartbeat
		n, err := strconv.Atoi(body)
		if err != nil || n < 1 {
			return f, fmt.Errorf("faultinject: bad node id in %q", clause)
		}
		f.Node = n
	case "corrupt":
		f.Kind = CorruptRecord
		body, at, hasAt := strings.Cut(rest, "@")
		if hasAt {
			u, err := strconv.ParseInt(at, 10, 64)
			if err != nil || u < 1 {
				return f, fmt.Errorf("faultinject: bad ordinal in %q", clause)
			}
			f.AtUnit = u
		}
		if body == "" {
			return f, fmt.Errorf("faultinject: %q wants corrupt:KIND[@ORDINAL]", clause)
		}
		f.Record = body
	default:
		return f, fmt.Errorf("faultinject: unknown fault %q", clause)
	}
	return f, nil
}

// clause renders the canonical spec of one fault.
func (f *Fault) clause() string {
	var b strings.Builder
	switch f.Kind {
	case KillNode:
		fmt.Fprintf(&b, "kill:node=%d@%d", f.Node, f.AtUnit)
	case KillJob:
		fmt.Fprintf(&b, "kill:job=%s@%d", f.Job, f.AtUnit)
	case DropHeartbeat:
		fmt.Fprintf(&b, "beat-drop:node=%d@%d", f.Node, f.AtUnit)
	case CorruptRecord:
		fmt.Fprintf(&b, "corrupt:%s@%d", f.Record, f.AtUnit)
	}
	if f.Count > 1 {
		fmt.Fprintf(&b, "x%d", f.Count)
	}
	return b.String()
}

// String renders the plan in the spec syntax; Parse round-trips it.
func (p *Plan) String() string {
	if p == nil {
		return ""
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	clauses := make([]string, len(p.faults))
	for i, f := range p.faults {
		clauses[i] = f.clause()
	}
	return strings.Join(clauses, ",")
}

// Seeded derives a deterministic node-kill plan from a seed: it kills
// 1 + (seed-derived) of the fleet's nodes at pseudo-random fleet-clock
// instants inside (0, maxUnit]. Same seed, same plan — the CI chaos
// matrix uses this to sweep scenarios without hand-writing specs.
func Seeded(seed int64, nodes int, maxUnit int64) *Plan {
	if nodes < 2 || maxUnit < 1 {
		return New()
	}
	r := uint64(seed)*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d
	next := func() uint64 {
		r += 0x9e3779b97f4a7c15
		z := r
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	kills := 1 + int(next()%uint64(nodes-1)) // always leave one survivor
	perm := make([]int, nodes)
	for i := range perm {
		perm[i] = i + 1
	}
	for i := nodes - 1; i > 0; i-- {
		j := int(next() % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	var faults []Fault
	for i := 0; i < kills; i++ {
		faults = append(faults, Fault{
			Kind:   KillNode,
			Node:   perm[i],
			AtUnit: 1 + int64(next()%uint64(maxUnit)),
		})
	}
	sort.Slice(faults, func(i, j int) bool { return faults[i].Node < faults[j].Node })
	return New(faults...)
}

// Trips returns the faults that have fired so far, in firing order.
func (p *Plan) Trips() []Trip {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]Trip, len(p.trips))
	copy(out, p.trips)
	return out
}

func (p *Plan) trip(f *fault, node int, job string, unit int64) {
	p.trips = append(p.trips, Trip{Fault: f.clause(), Node: node, Job: job, Unit: unit})
}

// KillNode reports whether the node must die now, given the fleet
// clock. The caller fences the node on true; a fenced node is skipped
// by later sweeps, so each matching fault fires at most Count times.
func (p *Plan) KillNode(node int, clock int64) bool {
	if p == nil {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, f := range p.faults {
		if f.Kind == KillNode && f.Node == node && clock >= f.AtUnit && f.fired < f.Count {
			f.fired++
			p.trip(f, node, "", clock)
			return true
		}
	}
	return false
}

// KillJob reports whether the node running the named job's attempt
// must die now, given the attempt's charged units. The first Count
// matching attempts are killed.
func (p *Plan) KillJob(node int, job string, attempt int, units int64) bool {
	if p == nil {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, f := range p.faults {
		if f.Kind == KillJob && f.Job == job && units >= f.AtUnit && f.fired < f.Count {
			f.fired++
			p.trip(f, node, job, units)
			return true
		}
	}
	return false
}

// DropHeartbeat reports whether the node's heartbeat must be dropped.
// A tripped drop latches: every later beat of that node is dropped too
// (the node is mute, not flapping).
func (p *Plan) DropHeartbeat(node int, odometer int64) bool {
	if p == nil {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, f := range p.faults {
		if f.Kind == DropHeartbeat && f.Node == node && odometer >= f.AtUnit {
			if f.fired == 0 {
				f.fired = 1
				p.trip(f, node, "", odometer)
			}
			return true
		}
	}
	return false
}

// CorruptAppend is called once per journal append with the record kind
// name; it reports whether that append's on-disk bytes must be
// damaged. Each fault fires on its configured 1-based ordinal among
// appends of its kind.
func (p *Plan) CorruptAppend(record string) bool {
	if p == nil {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.appends == nil {
		p.appends = make(map[string]int)
	}
	p.appends[record]++
	seen := p.appends[record]
	for _, f := range p.faults {
		if f.Kind == CorruptRecord && f.Record == record && int64(seen) == f.AtUnit && f.fired == 0 {
			f.fired = 1
			p.trip(f, 0, "", int64(seen))
			return true
		}
	}
	return false
}

// JournalCorrupter adapts the plan's CorruptRecord faults to the
// journal's SetCorrupt hook: when a fault fires for an append, the
// record's last byte (payload tail) is flipped, which fails the CRC on
// the next replay — the replay truncates there and the affected jobs
// degrade to re-dispatch.
func JournalCorrupter(p *Plan) func(kind string, encoded []byte) []byte {
	return func(kind string, encoded []byte) []byte {
		if !p.CorruptAppend(kind) || len(encoded) == 0 {
			return nil
		}
		damaged := append([]byte(nil), encoded...)
		damaged[len(damaged)-1] ^= 0xa5
		return damaged
	}
}
