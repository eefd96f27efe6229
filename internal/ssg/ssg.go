// Package ssg implements the self-contained slicing graph of paper
// Sec. V-A: the structure BackDroid builds during search-based backward
// slicing and that forward constant/points-to propagation later consumes.
//
// Compared with path-like slices, an SSG additionally carries:
//   - a hierarchical taint map (one taint set per tracked method plus a
//     global set for static fields),
//   - the inter-procedural relationships uncovered by bytecode search
//     (call and return edges), and
//   - the raw typed IR statements, wrapped in SSGUnit nodes,
//
// plus a special static track holding off-path <clinit> statements added on
// demand.
package ssg

import (
	"fmt"
	"sort"
	"strings"

	"backdroid/internal/dex"
	"backdroid/internal/ir"
)

// Unit is an SSGUnit: one recorded statement with its node ID, containing
// method and the raw typed statement (paper: "we record the node ID, the
// signature of corresponding method, and most importantly, the typed
// bytecode Unit statement").
type Unit struct {
	ID     int
	Method dex.MethodRef
	Index  int // statement index within the method body
	Stmt   ir.Unit
}

// String renders the node for SSG dumps.
func (u *Unit) String() string {
	return fmt.Sprintf("#%d [%s] %s", u.ID, u.Method.SootSignature(), u.Stmt)
}

// EdgeKind distinguishes calling from return edges; contained methods get
// both (paper: "we use both calling and return edges for this special
// relationship").
type EdgeKind int

// Edge kinds.
const (
	CallEdge EdgeKind = iota + 1
	ReturnEdge
)

// Edge is an inter-procedural relationship: the call-site unit in the
// caller and the callee method whose recorded units it transfers to.
type Edge struct {
	Kind   EdgeKind
	From   *Unit
	Callee dex.MethodRef
}

// TaintSet tracks tainted locals, object fields and static fields for one
// scope.
type TaintSet struct {
	locals map[string]bool // local name
	fields map[string]bool // "<localName>.<field soot sig>"
	static map[string]bool // field soot sig
}

// NewTaintSet returns an empty taint set.
func NewTaintSet() *TaintSet {
	return &TaintSet{
		locals: make(map[string]bool),
		fields: make(map[string]bool),
		static: make(map[string]bool),
	}
}

// AddLocal taints a local by name.
func (t *TaintSet) AddLocal(name string) { t.locals[name] = true }

// RemoveLocal untaints a local.
func (t *TaintSet) RemoveLocal(name string) { delete(t.locals, name) }

// HasLocal reports whether the local is tainted.
func (t *TaintSet) HasLocal(name string) bool { return t.locals[name] }

// AddField taints obj.field; the paper also keeps the class object itself
// tainted so the field survives aliasing and method boundaries, so the
// caller should usually AddLocal(obj) too.
func (t *TaintSet) AddField(obj string, field dex.FieldRef) {
	t.fields[obj+"."+field.SootSignature()] = true
}

// RemoveField untaints obj.field. Following the paper, when no other
// tainted fields remain on the same object the object local is untainted
// as well.
func (t *TaintSet) RemoveField(obj string, field dex.FieldRef) {
	delete(t.fields, obj+"."+field.SootSignature())
	prefix := obj + ".<"
	for k := range t.fields {
		if strings.HasPrefix(k, prefix) {
			return // other fields of obj still tainted
		}
	}
	t.RemoveLocal(obj)
}

// HasField reports whether obj.field is tainted.
func (t *TaintSet) HasField(obj string, field dex.FieldRef) bool {
	return t.fields[obj+"."+field.SootSignature()]
}

// HasAnyFieldOf reports whether any field of the object is tainted.
func (t *TaintSet) HasAnyFieldOf(obj string) bool {
	prefix := obj + ".<"
	for k := range t.fields {
		if strings.HasPrefix(k, prefix) {
			return true
		}
	}
	return false
}

// FieldSigsOf returns the Soot signatures of the tainted fields of the
// object, sorted.
func (t *TaintSet) FieldSigsOf(obj string) []string {
	prefix := obj + ".<"
	var out []string
	for k := range t.fields {
		if strings.HasPrefix(k, prefix) {
			out = append(out, k[len(obj)+1:])
		}
	}
	sort.Strings(out)
	return out
}

// AddStatic taints a static field (global scope).
func (t *TaintSet) AddStatic(field dex.FieldRef) { t.static[field.SootSignature()] = true }

// RemoveStatic untaints a static field.
func (t *TaintSet) RemoveStatic(field dex.FieldRef) { delete(t.static, field.SootSignature()) }

// HasStatic reports whether the static field is tainted.
func (t *TaintSet) HasStatic(field dex.FieldRef) bool { return t.static[field.SootSignature()] }

// StaticFields returns the tainted static field signatures, sorted.
func (t *TaintSet) StaticFields() []string {
	out := make([]string, 0, len(t.static))
	for k := range t.static {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Empty reports whether nothing is tainted.
func (t *TaintSet) Empty() bool {
	return len(t.locals) == 0 && len(t.fields) == 0 && len(t.static) == 0
}

// Size returns the number of taint entries.
func (t *TaintSet) Size() int { return len(t.locals) + len(t.fields) + len(t.static) }

// Graph is one sink API call's self-contained slicing graph.
type Graph struct {
	SinkMethod dex.MethodRef // the sink API itself
	SinkSite   *Unit         // the initial node holding the sink call

	nextID      int
	units       map[string]*Unit // keyed by method sig + "#" + index
	methodUnits map[string][]*Unit
	edges       []Edge

	// Hierarchical taint map: per tracked method, plus one global set for
	// static fields.
	taints      map[string]*TaintSet
	GlobalTaint *TaintSet

	// StaticTrack holds off-path <clinit> units, analyzed first by the
	// forward pass.
	StaticTrack []*Unit

	entries   []dex.MethodRef
	entrySeen map[string]bool
	chains    [][]dex.MethodRef // recorded entry call chains (entry ... sink)
}

// New creates an empty SSG for the given sink API.
func New(sink dex.MethodRef) *Graph {
	return &Graph{
		SinkMethod:  sink,
		units:       make(map[string]*Unit),
		methodUnits: make(map[string][]*Unit),
		taints:      make(map[string]*TaintSet),
		GlobalTaint: NewTaintSet(),
		entrySeen:   make(map[string]bool),
	}
}

func unitKey(m dex.MethodRef, idx int) string {
	return m.SootSignature() + "#" + fmt.Sprint(idx)
}

// AddUnit records a statement node, returning the existing node when the
// same statement was already recorded (slices across sinks or branches may
// revisit statements).
func (g *Graph) AddUnit(m dex.MethodRef, idx int, stmt ir.Unit) *Unit {
	key := unitKey(m, idx)
	if u, ok := g.units[key]; ok {
		return u
	}
	u := &Unit{ID: g.nextID, Method: m, Index: idx, Stmt: stmt}
	g.nextID++
	g.units[key] = u
	sig := m.SootSignature()
	g.methodUnits[sig] = append(g.methodUnits[sig], u)
	return u
}

// Unit returns the recorded node for a statement, if present.
func (g *Graph) Unit(m dex.MethodRef, idx int) (*Unit, bool) {
	u, ok := g.units[unitKey(m, idx)]
	return u, ok
}

// MarkSink designates the initial node that contains the sink call.
func (g *Graph) MarkSink(u *Unit) { g.SinkSite = u }

// AddStaticUnit records an off-path <clinit> statement into the static
// track.
func (g *Graph) AddStaticUnit(m dex.MethodRef, idx int, stmt ir.Unit) *Unit {
	u := g.AddUnit(m, idx, stmt)
	for _, existing := range g.StaticTrack {
		if existing == u {
			return u
		}
	}
	g.StaticTrack = append(g.StaticTrack, u)
	return u
}

// AddEdge records an inter-procedural edge.
func (g *Graph) AddEdge(kind EdgeKind, from *Unit, callee dex.MethodRef) {
	for _, e := range g.edges {
		if e.Kind == kind && e.From == from && e.Callee.SootSignature() == callee.SootSignature() {
			return
		}
	}
	g.edges = append(g.edges, Edge{Kind: kind, From: from, Callee: callee})
}

// Edges returns all recorded edges.
func (g *Graph) Edges() []Edge { return g.edges }

// CallEdgesFrom returns the callee methods reachable from the given node
// through call edges.
func (g *Graph) CallEdgesFrom(u *Unit) []dex.MethodRef {
	var out []dex.MethodRef
	for _, e := range g.edges {
		if e.Kind == CallEdge && e.From == u {
			out = append(out, e.Callee)
		}
	}
	return out
}

// UnitsOf returns the recorded nodes of the method in statement order.
func (g *Graph) UnitsOf(m dex.MethodRef) []*Unit {
	us := g.methodUnits[m.SootSignature()]
	sorted := make([]*Unit, len(us))
	copy(sorted, us)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Index < sorted[j].Index })
	return sorted
}

// Methods returns the signatures of all tracked methods, sorted.
func (g *Graph) Methods() []string {
	out := make([]string, 0, len(g.methodUnits))
	for sig := range g.methodUnits {
		out = append(out, sig)
	}
	sort.Strings(out)
	return out
}

// NodeCount returns the number of recorded SSG units.
func (g *Graph) NodeCount() int { return len(g.units) }

// Taints returns (allocating on first use) the taint set of the method —
// the hierarchical taint map of the paper.
func (g *Graph) Taints(m dex.MethodRef) *TaintSet {
	sig := m.SootSignature()
	ts, ok := g.taints[sig]
	if !ok {
		ts = NewTaintSet()
		g.taints[sig] = ts
	}
	return ts
}

// MarkEntry records that backtracking reached a valid entry point.
func (g *Graph) MarkEntry(m dex.MethodRef) {
	sig := m.SootSignature()
	if g.entrySeen[sig] {
		return
	}
	g.entrySeen[sig] = true
	g.entries = append(g.entries, m)
}

// Entries returns the entry points reached by backtracking.
func (g *Graph) Entries() []dex.MethodRef { return g.entries }

// Reachable reports whether any entry point was reached.
func (g *Graph) Reachable() bool { return len(g.entries) > 0 }

// AddChain records one full entry-to-sink call chain for reporting.
func (g *Graph) AddChain(chain []dex.MethodRef) {
	cp := make([]dex.MethodRef, len(chain))
	copy(cp, chain)
	g.chains = append(g.chains, cp)
}

// Chains returns the recorded entry-to-sink chains.
func (g *Graph) Chains() [][]dex.MethodRef { return g.chains }

// String renders the SSG in the block layout of the paper's Fig. 6: one
// block per method (static track first), plus edge and entry summaries.
func (g *Graph) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "SSG for sink %s\n", g.SinkMethod.SootSignature())
	if len(g.StaticTrack) > 0 {
		b.WriteString("  [static track]\n")
		for _, u := range g.StaticTrack {
			fmt.Fprintf(&b, "    %s\n", u)
		}
	}
	for _, sig := range g.Methods() {
		fmt.Fprintf(&b, "  [%s]\n", sig)
		ref, err := dex.ParseSootMethodSignature(sig)
		if err != nil {
			continue
		}
		for _, u := range g.UnitsOf(ref) {
			marker := ""
			if u == g.SinkSite {
				marker = "  // sink"
			}
			fmt.Fprintf(&b, "    %04d: %s%s\n", u.Index, u.Stmt, marker)
		}
	}
	for _, e := range g.edges {
		kind := "call"
		if e.Kind == ReturnEdge {
			kind = "return"
		}
		fmt.Fprintf(&b, "  edge(%s): #%d -> %s\n", kind, e.From.ID, e.Callee.SootSignature())
	}
	for _, m := range g.entries {
		fmt.Fprintf(&b, "  entry: %s\n", m.SootSignature())
	}
	return b.String()
}
