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
	"slices"
	"sort"
	"strings"

	"backdroid/internal/dex"
	"backdroid/internal/ir"
)

// Unit is an SSGUnit: one recorded statement with its node ID, containing
// method and the raw typed statement (paper: "we record the node ID, the
// signature of corresponding method, and most importantly, the typed
// bytecode Unit statement"). MethodID is the method's number in the
// program the graph was built from, the key every lookup uses; the graph
// keeps the method's ref (Graph.Ref).
type Unit struct {
	ID       int
	MethodID ir.MethodID
	Index    int // statement index within the method body
	Stmt     ir.Unit
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

// TaintSet tracks the taints of one scope: tainted registers of one
// method body, as a bitset; the return flag, which stands for the
// value the method returns while a contained method is sliced from its
// end; tainted object fields, keyed on (register, field); and tainted
// static fields. The field maps are made on first use, so a set that
// only ever holds registers allocates nothing but its bitset words.
type TaintSet struct {
	locals ir.RegSet
	ret    bool
	fields map[int]map[dex.FieldRef]struct{} // object register -> its tainted fields, never empty
	static map[dex.FieldRef]struct{}
}

// NewTaintSet returns an empty taint set.
func NewTaintSet() *TaintSet { return &TaintSet{} }

// AddLocal taints register r.
func (t *TaintSet) AddLocal(r int) { t.locals.Add(r) }

// RemoveLocal untaints register r.
func (t *TaintSet) RemoveLocal(r int) { t.locals.Remove(r) }

// HasLocal reports whether register r is tainted.
func (t *TaintSet) HasLocal(r int) bool { return t.locals.Has(r) }

// AddReturn taints the method's return value.
func (t *TaintSet) AddReturn() { t.ret = true }

// RemoveReturn untaints the method's return value.
func (t *TaintSet) RemoveReturn() { t.ret = false }

// HasReturn reports whether the method's return value is tainted.
func (t *TaintSet) HasReturn() bool { return t.ret }

// AddField taints field of the object in register obj; the paper also
// keeps the class object itself tainted so the field survives aliasing
// and method boundaries, so the caller should usually AddLocal(obj) too.
func (t *TaintSet) AddField(obj int, field dex.FieldRef) {
	if t.fields == nil {
		t.fields = make(map[int]map[dex.FieldRef]struct{})
	}
	set := t.fields[obj]
	if set == nil {
		set = make(map[dex.FieldRef]struct{})
		t.fields[obj] = set
	}
	set[field] = struct{}{}
}

// RemoveField untaints field of the object in register obj. Following
// the paper, when no other tainted fields remain on the same object the
// object register is untainted as well.
func (t *TaintSet) RemoveField(obj int, field dex.FieldRef) {
	set := t.fields[obj]
	delete(set, field)
	if len(set) > 0 {
		return // other fields of obj still tainted
	}
	delete(t.fields, obj)
	t.RemoveLocal(obj)
}

// HasField reports whether field of the object in register obj is
// tainted.
func (t *TaintSet) HasField(obj int, field dex.FieldRef) bool {
	_, ok := t.fields[obj][field]
	return ok
}

// HasAnyFieldOf reports whether any field of the object in register obj
// is tainted.
func (t *TaintSet) HasAnyFieldOf(obj int) bool { return len(t.fields[obj]) > 0 }

// FieldsOf returns the tainted fields of the object in register obj, in
// no particular order.
func (t *TaintSet) FieldsOf(obj int) []dex.FieldRef {
	set := t.fields[obj]
	if len(set) == 0 {
		return nil
	}
	out := make([]dex.FieldRef, 0, len(set))
	for f := range set {
		out = append(out, f)
	}
	return out
}

// AddStatic taints a static field (global scope).
func (t *TaintSet) AddStatic(field dex.FieldRef) {
	if t.static == nil {
		t.static = make(map[dex.FieldRef]struct{})
	}
	t.static[field] = struct{}{}
}

// RemoveStatic untaints a static field.
func (t *TaintSet) RemoveStatic(field dex.FieldRef) { delete(t.static, field) }

// HasStatic reports whether the static field is tainted.
func (t *TaintSet) HasStatic(field dex.FieldRef) bool {
	_, ok := t.static[field]
	return ok
}

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
func (t *TaintSet) Empty() bool { return t.Size() == 0 }

// Size returns the number of taint entries: tainted registers, the
// return flag, tainted object fields and tainted static fields.
func (t *TaintSet) Size() int {
	n := t.locals.Len() + len(t.static)
	if t.ret {
		n++
	}
	for _, set := range t.fields {
		n += len(set)
	}
	return n
}

// tracked is what a graph keeps per method: its ref, its recorded units
// and its taint set. A backward scan records a method's statements from
// its last to its first, so units holds them by descending index, where
// a scan's next unit goes on the end; asc is the ascending copy UnitsOf
// hands out, made on first call after a change.
type tracked struct {
	ref    dex.MethodRef
	units  []*Unit // by descending statement index
	asc    []*Unit // units in statement order, or nil
	taints *TaintSet
}

// find returns the position in units of the unit for statement idx, or
// where it would go, and whether it is there.
func (t *tracked) find(idx int) (int, bool) {
	i := sort.Search(len(t.units), func(i int) bool { return t.units[i].Index <= idx })
	return i, i < len(t.units) && t.units[i].Index == idx
}

// Graph is one sink API call's self-contained slicing graph. Its methods
// are keyed by their IDs in the program it is built from; the graph keeps
// the ref of each method it records, so it needs the program neither to
// render itself nor to be traversed, and does not keep the program alive.
type Graph struct {
	SinkMethod dex.MethodRef // the sink API itself
	SinkSite   *Unit         // the initial node holding the sink call

	// methods holds every method with units, a taint set or an incoming
	// edge; index maps an ID to its position there.
	methods []tracked
	index   map[ir.MethodID]int
	order   []ir.MethodID // Methods(), until a method gains its first unit
	nextID  int
	free    []Unit // allocated, not yet handed out
	edges   []Edge

	// Hierarchical taint map: per tracked method (in methods), plus one
	// global set for static fields.
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
		methods:     make([]tracked, 0, 8),
		index:       make(map[ir.MethodID]int, 16),
		GlobalTaint: NewTaintSet(),
		entrySeen:   make(map[ir.MethodID]bool),
	}
}

// method returns the graph's record of method m, making it on first use.
func (g *Graph) method(m ir.MethodID) *tracked {
	i, ok := g.index[m]
	if !ok {
		i = len(g.methods)
		g.index[m] = i
		g.methods = append(g.methods, tracked{})
	}
	return &g.methods[i]
}

// Ref returns the method an ID names, for any method with recorded units
// or an incoming edge.
func (g *Graph) Ref(m ir.MethodID) dex.MethodRef {
	if i, ok := g.index[m]; ok {
		return g.methods[i].ref
	}
	return dex.MethodRef{}
}

// unitChunk caps how many units the graph allocates at once. Chunks
// double from 8 up to it, so a small graph wastes little.
const unitChunk = 128

// AddUnit records statement idx of method m (whose ref is ref), returning
// the existing node when the same statement was already recorded (slices
// across sinks or branches may revisit statements).
func (g *Graph) AddUnit(m ir.MethodID, ref dex.MethodRef, idx int, stmt ir.Unit) *Unit {
	mt := g.method(m)
	i, ok := mt.find(idx)
	if ok {
		return mt.units[i]
	}
	if len(g.free) == 0 {
		g.free = make([]Unit, min(max(g.nextID, 8), unitChunk))
	}
	u := &g.free[0]
	g.free = g.free[1:]
	*u = Unit{ID: g.nextID, MethodID: m, Index: idx, Stmt: stmt}
	g.nextID++
	if len(mt.units) == 0 {
		g.order = nil
		mt.units = make([]*Unit, 0, 4)
	}
	mt.ref = ref
	mt.units = slices.Insert(mt.units, i, u)
	mt.asc = nil
	return u
}

// Unit returns the recorded node for a statement, if present.
func (g *Graph) Unit(m ir.MethodID, idx int) (*Unit, bool) {
	j, ok := g.index[m]
	if !ok {
		return nil, false
	}
	mt := &g.methods[j]
	if i, ok := mt.find(idx); ok {
		return mt.units[i], true
	}
	return nil, false
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
	g.method(callee).ref = ref
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
// The slice is the graph's own, kept until the method's next AddUnit:
// the caller must not modify it.
func (g *Graph) UnitsOf(m ir.MethodID) []*Unit {
	i, ok := g.index[m]
	if !ok {
		return nil
	}
	mt := &g.methods[i]
	if mt.asc == nil && len(mt.units) > 0 {
		mt.asc = make([]*Unit, len(mt.units))
		for i, u := range mt.units {
			mt.asc[len(mt.units)-1-i] = u
		}
	}
	return mt.asc
}

// Methods returns all methods with recorded units, sorted by Soot
// signature. The order is computed once and kept until a method gains
// its first unit; the caller must not modify the slice.
func (g *Graph) Methods() []ir.MethodID {
	if g.order != nil {
		return g.order
	}
	type keyed struct {
		start, end int // the signature's span in sigs
		id         ir.MethodID
	}
	var sigs []byte
	ks := make([]keyed, 0, len(g.methods))
	for id, i := range g.index {
		mt := &g.methods[i]
		if len(mt.units) == 0 {
			continue
		}
		start := len(sigs)
		sigs = mt.ref.AppendSootSignature(sigs)
		ks = append(ks, keyed{start, len(sigs), id})
	}
	sort.Slice(ks, func(i, j int) bool {
		return bytes.Compare(sigs[ks[i].start:ks[i].end], sigs[ks[j].start:ks[j].end]) < 0
	})
	g.order = make([]ir.MethodID, len(ks))
	for i, k := range ks {
		g.order[i] = k.id
	}
	return g.order
}

// NodeCount returns the number of recorded SSG units.
func (g *Graph) NodeCount() int { return g.nextID }

// Taints returns (allocating on first use) the taint set of the method —
// the hierarchical taint map of the paper.
func (g *Graph) Taints(m ir.MethodID) *TaintSet {
	mt := g.method(m)
	if mt.taints == nil {
		mt.taints = NewTaintSet()
	}
	return mt.taints
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
			fmt.Fprintf(&b, "    #%d [%s] %s\n", u.ID, g.Ref(u.MethodID).SootSignature(), u.Stmt)
		}
	}
	for _, id := range g.Methods() {
		fmt.Fprintf(&b, "  [%s]\n", g.Ref(id).SootSignature())
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
		fmt.Fprintf(&b, "  edge(%s): #%d -> %s\n", kind, e.From.ID, g.Ref(e.Callee).SootSignature())
	}
	for _, m := range g.entries {
		fmt.Fprintf(&b, "  entry: %s\n", m.SootSignature())
	}
	return b.String()
}
