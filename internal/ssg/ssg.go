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
	"bytes"
	"fmt"
	"sort"
	"strings"

	"backdroid/internal/dex"
	"backdroid/internal/ir"
)

// Unit is an SSGUnit: one recorded statement with its node ID, containing
// method and the raw typed statement (paper: "we record the node ID, the
// signature of corresponding method, and most importantly, the typed
// bytecode Unit statement"). MethodID is the method's number in the
// program the graph was built from, the key every lookup uses.
type Unit struct {
	ID       int
	Method   dex.MethodRef
	MethodID ir.MethodID
	Index    int // statement index within the method body
	Stmt     ir.Unit
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
	Callee ir.MethodID
}

// TaintSet tracks tainted locals, object fields and static fields for one
// scope.
type TaintSet struct {
	locals map[string]bool
	fields map[string]map[dex.FieldRef]bool // object local -> its tainted fields, never empty
	static map[dex.FieldRef]bool
}

// NewTaintSet returns an empty taint set.
func NewTaintSet() *TaintSet {
	return &TaintSet{
		locals: make(map[string]bool),
		fields: make(map[string]map[dex.FieldRef]bool),
		static: make(map[dex.FieldRef]bool),
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
	set := t.fields[obj]
	if set == nil {
		set = make(map[dex.FieldRef]bool)
		t.fields[obj] = set
	}
	set[field] = true
}

// RemoveField untaints obj.field. Following the paper, when no other
// tainted fields remain on the same object the object local is untainted
// as well.
func (t *TaintSet) RemoveField(obj string, field dex.FieldRef) {
	set := t.fields[obj]
	delete(set, field)
	if len(set) > 0 {
		return // other fields of obj still tainted
	}
	delete(t.fields, obj)
	t.RemoveLocal(obj)
}

// HasField reports whether obj.field is tainted.
func (t *TaintSet) HasField(obj string, field dex.FieldRef) bool {
	return t.fields[obj][field]
}

// HasAnyFieldOf reports whether any field of the object is tainted.
func (t *TaintSet) HasAnyFieldOf(obj string) bool { return len(t.fields[obj]) > 0 }

// FieldsOf returns the tainted fields of the object, in no particular
// order.
func (t *TaintSet) FieldsOf(obj string) []dex.FieldRef {
	set := t.fields[obj]
	out := make([]dex.FieldRef, 0, len(set))
	for f := range set {
		out = append(out, f)
	}
	return out
}

// AddStatic taints a static field (global scope).
func (t *TaintSet) AddStatic(field dex.FieldRef) { t.static[field] = true }

// RemoveStatic untaints a static field.
func (t *TaintSet) RemoveStatic(field dex.FieldRef) { delete(t.static, field) }

// HasStatic reports whether the static field is tainted.
func (t *TaintSet) HasStatic(field dex.FieldRef) bool { return t.static[field] }

// AnyStatic reports whether pred holds for some tainted static field.
func (t *TaintSet) AnyStatic(pred func(dex.FieldRef) bool) bool {
	for f := range t.static {
		if pred(f) {
			return true
		}
	}
	return false
}

// StaticFields returns the tainted static fields, sorted by Soot
// signature.
func (t *TaintSet) StaticFields() []dex.FieldRef {
	type keyed struct {
		sig string
		f   dex.FieldRef
	}
	ks := make([]keyed, 0, len(t.static))
	for f := range t.static {
		ks = append(ks, keyed{f.SootSignature(), f})
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i].sig < ks[j].sig })
	out := make([]dex.FieldRef, len(ks))
	for i, k := range ks {
		out[i] = k.f
	}
	return out
}

// Empty reports whether nothing is tainted.
func (t *TaintSet) Empty() bool {
	return len(t.locals) == 0 && len(t.fields) == 0 && len(t.static) == 0
}

// Size returns the number of taint entries.
func (t *TaintSet) Size() int {
	n := len(t.locals) + len(t.static)
	for _, set := range t.fields {
		n += len(set)
	}
	return n
}

// unitKey identifies a statement: its method and its index in the body.
type unitKey struct {
	method ir.MethodID
	index  int
}

// Graph is one sink API call's self-contained slicing graph. Its methods
// are keyed by their IDs in the program it is built from; the graph keeps
// the ref of each method it records, so it needs the program neither to
// render itself nor to be traversed, and does not keep the program alive.
type Graph struct {
	SinkMethod dex.MethodRef // the sink API itself
	SinkSite   *Unit         // the initial node holding the sink call

	refs        map[ir.MethodID]dex.MethodRef // every method with units or an incoming edge
	nextID      int
	units       map[unitKey]*Unit
	methodUnits map[ir.MethodID][]*Unit
	edges       []Edge

	// Hierarchical taint map: per tracked method, plus one global set for
	// static fields.
	taints      map[ir.MethodID]*TaintSet
	GlobalTaint *TaintSet

	// StaticTrack holds off-path <clinit> units, analyzed first by the
	// forward pass.
	StaticTrack []*Unit

	entries   []dex.MethodRef
	entrySeen map[ir.MethodID]bool
	chains    [][]dex.MethodRef // recorded entry call chains (entry ... sink)
}

// New creates an empty SSG for the given sink API.
func New(sink dex.MethodRef) *Graph {
	return &Graph{
		SinkMethod:  sink,
		refs:        make(map[ir.MethodID]dex.MethodRef),
		units:       make(map[unitKey]*Unit),
		methodUnits: make(map[ir.MethodID][]*Unit),
		taints:      make(map[ir.MethodID]*TaintSet),
		GlobalTaint: NewTaintSet(),
		entrySeen:   make(map[ir.MethodID]bool),
	}
}

// Ref returns the method an ID names, for any method with recorded units
// or an incoming edge.
func (g *Graph) Ref(m ir.MethodID) dex.MethodRef { return g.refs[m] }

// AddUnit records statement idx of method m (whose ref is ref), returning
// the existing node when the same statement was already recorded (slices
// across sinks or branches may revisit statements).
func (g *Graph) AddUnit(m ir.MethodID, ref dex.MethodRef, idx int, stmt ir.Unit) *Unit {
	key := unitKey{m, idx}
	if u, ok := g.units[key]; ok {
		return u
	}
	g.refs[m] = ref
	u := &Unit{ID: g.nextID, Method: ref, MethodID: m, Index: idx, Stmt: stmt}
	g.nextID++
	g.units[key] = u
	g.methodUnits[m] = append(g.methodUnits[m], u)
	return u
}

// Unit returns the recorded node for a statement, if present.
func (g *Graph) Unit(m ir.MethodID, idx int) (*Unit, bool) {
	u, ok := g.units[unitKey{m, idx}]
	return u, ok
}

// MarkSink designates the initial node that contains the sink call.
func (g *Graph) MarkSink(u *Unit) { g.SinkSite = u }

// AddStaticUnit records an off-path <clinit> statement into the static
// track.
func (g *Graph) AddStaticUnit(m ir.MethodID, ref dex.MethodRef, idx int, stmt ir.Unit) *Unit {
	u := g.AddUnit(m, ref, idx, stmt)
	for _, existing := range g.StaticTrack {
		if existing == u {
			return u
		}
	}
	g.StaticTrack = append(g.StaticTrack, u)
	return u
}

// AddEdge records an inter-procedural edge to callee, whose ref is ref.
func (g *Graph) AddEdge(kind EdgeKind, from *Unit, callee ir.MethodID, ref dex.MethodRef) {
	for _, e := range g.edges {
		if e.Kind == kind && e.From == from && e.Callee == callee {
			return
		}
	}
	g.refs[callee] = ref
	g.edges = append(g.edges, Edge{Kind: kind, From: from, Callee: callee})
}

// Edges returns all recorded edges.
func (g *Graph) Edges() []Edge { return g.edges }

// CallEdgesFrom returns the callee methods reachable from the given node
// through call edges.
func (g *Graph) CallEdgesFrom(u *Unit) []ir.MethodID {
	var out []ir.MethodID
	for _, e := range g.edges {
		if e.Kind == CallEdge && e.From == u {
			out = append(out, e.Callee)
		}
	}
	return out
}

// UnitsOf returns the recorded nodes of the method in statement order.
func (g *Graph) UnitsOf(m ir.MethodID) []*Unit {
	us := g.methodUnits[m]
	sorted := make([]*Unit, len(us))
	copy(sorted, us)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Index < sorted[j].Index })
	return sorted
}

// Methods returns all tracked methods, sorted by Soot signature.
func (g *Graph) Methods() []ir.MethodID {
	type keyed struct {
		start, end int // the signature's span in sigs
		id         ir.MethodID
	}
	var sigs []byte
	ks := make([]keyed, 0, len(g.methodUnits))
	for id, us := range g.methodUnits {
		start := len(sigs)
		sigs = us[0].Method.AppendSootSignature(sigs)
		ks = append(ks, keyed{start, len(sigs), id})
	}
	sort.Slice(ks, func(i, j int) bool {
		return bytes.Compare(sigs[ks[i].start:ks[i].end], sigs[ks[j].start:ks[j].end]) < 0
	})
	out := make([]ir.MethodID, len(ks))
	for i, k := range ks {
		out[i] = k.id
	}
	return out
}

// NodeCount returns the number of recorded SSG units.
func (g *Graph) NodeCount() int { return len(g.units) }

// Taints returns (allocating on first use) the taint set of the method —
// the hierarchical taint map of the paper.
func (g *Graph) Taints(m ir.MethodID) *TaintSet {
	ts, ok := g.taints[m]
	if !ok {
		ts = NewTaintSet()
		g.taints[m] = ts
	}
	return ts
}

// MarkEntry records that backtracking reached a valid entry point: method
// id, whose ref is m.
func (g *Graph) MarkEntry(id ir.MethodID, m dex.MethodRef) {
	if g.entrySeen[id] {
		return
	}
	g.entrySeen[id] = true
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
	for _, id := range g.Methods() {
		fmt.Fprintf(&b, "  [%s]\n", g.refs[id].SootSignature())
		for _, u := range g.UnitsOf(id) {
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
		fmt.Fprintf(&b, "  edge(%s): #%d -> %s\n", kind, e.From.ID, g.refs[e.Callee].SootSignature())
	}
	for _, m := range g.entries {
		fmt.Fprintf(&b, "  entry: %s\n", m.SootSignature())
	}
	return b.String()
}
