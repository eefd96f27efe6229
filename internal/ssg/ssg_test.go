package ssg

import (
	"strings"
	"testing"
	"testing/quick"

	"backdroid/internal/dex"
	"backdroid/internal/ir"
)

var (
	sinkRef  = dex.NewMethodRef("javax.crypto.Cipher", "getInstance", dex.T("javax.crypto.Cipher"), dex.StringT)
	methodA  = dex.NewMethodRef("com.a.A", "doWork", dex.Void)
	methodB  = dex.NewMethodRef("com.a.B", "helper", dex.StringT)
	clinitM  = dex.NewMethodRef("com.a.C", "<clinit>", dex.Void)
	fieldRef = dex.NewFieldRef("com.a.C", "PORT", dex.Int)
)

// newGraph returns an empty SSG for sinkRef and a function numbering
// methods for it.
func newGraph() (*Graph, func(dex.MethodRef) ir.MethodID) {
	return New(sinkRef), ir.NewProgram(dex.NewFile()).ID
}

func stmt(s string) ir.Unit {
	return &ir.AssignStmt{LHS: &ir.Local{Name: "r0"}, RHS: ir.StringConst{V: s}}
}

func TestAddUnitDedup(t *testing.T) {
	g, id := newGraph()
	u1 := g.AddUnit(id(methodA), methodA, 3, stmt("x"))
	u2 := g.AddUnit(id(methodA), methodA, 3, stmt("y"))
	if u1 != u2 {
		t.Error("same (method, index) must return the same node")
	}
	u3 := g.AddUnit(id(methodA), methodA, 4, stmt("z"))
	if u3 == u1 || u3.ID == u1.ID {
		t.Error("different index must make a new node with a new ID")
	}
	if g.NodeCount() != 2 {
		t.Errorf("NodeCount = %d, want 2", g.NodeCount())
	}
}

func TestUnitsOfSorted(t *testing.T) {
	g, id := newGraph()
	g.AddUnit(id(methodA), methodA, 9, stmt("c"))
	g.AddUnit(id(methodA), methodA, 1, stmt("a"))
	g.AddUnit(id(methodA), methodA, 5, stmt("b"))
	us := g.UnitsOf(id(methodA))
	if len(us) != 3 || us[0].Index != 1 || us[1].Index != 5 || us[2].Index != 9 {
		t.Errorf("UnitsOf order = %v", us)
	}
}

func TestEdgesAndDedup(t *testing.T) {
	g, id := newGraph()
	u := g.AddUnit(id(methodA), methodA, 0, stmt("site"))
	g.AddEdge(CallEdge, u, id(methodB), methodB)
	g.AddEdge(CallEdge, u, id(methodB), methodB) // duplicate
	g.AddEdge(ReturnEdge, u, id(methodB), methodB)
	if len(g.Edges()) != 2 {
		t.Errorf("edges = %d, want 2 (call+return)", len(g.Edges()))
	}
	callees := g.CallEdgesFrom(u)
	if len(callees) != 1 || callees[0] != id(methodB) {
		t.Errorf("CallEdgesFrom = %v", callees)
	}
}

func TestStaticTrack(t *testing.T) {
	g, id := newGraph()
	u := g.AddStaticUnit(id(clinitM), clinitM, 0, stmt("static"))
	g.AddStaticUnit(id(clinitM), clinitM, 0, stmt("static")) // dedup
	if len(g.StaticTrack) != 1 || g.StaticTrack[0] != u {
		t.Errorf("StaticTrack = %v", g.StaticTrack)
	}
	if !strings.Contains(g.String(), "[static track]") {
		t.Error("String should render the static track")
	}
}

func TestEntriesAndChains(t *testing.T) {
	g, id := newGraph()
	if g.Reachable() {
		t.Error("empty SSG must be unreachable")
	}
	entry := dex.NewMethodRef("com.a.Main", "onCreate", dex.Void, dex.T("android.os.Bundle"))
	g.MarkEntry(id(entry), entry)
	g.MarkEntry(id(entry), entry) // dedup
	if !g.Reachable() || len(g.Entries()) != 1 {
		t.Errorf("entries = %v", g.Entries())
	}
	g.AddChain([]dex.MethodRef{entry, methodA})
	if len(g.Chains()) != 1 || len(g.Chains()[0]) != 2 {
		t.Errorf("chains = %v", g.Chains())
	}
}

func TestHierarchicalTaintMap(t *testing.T) {
	g, id := newGraph()
	ta := g.Taints(id(methodA))
	tb := g.Taints(id(methodB))
	if ta == tb {
		t.Fatal("taint sets must be per-method")
	}
	ta.AddLocal("r1")
	if !g.Taints(id(methodA)).HasLocal("r1") {
		t.Error("taint set must persist per method")
	}
	if g.Taints(id(methodB)).HasLocal("r1") {
		t.Error("taints must not leak across methods")
	}
	g.GlobalTaint.AddStatic(fieldRef)
	if !g.GlobalTaint.HasStatic(fieldRef) {
		t.Error("global static taint lost")
	}
}

func TestTaintSetFieldSemantics(t *testing.T) {
	ts := NewTaintSet()
	f1 := dex.NewFieldRef("com.a.B", "host", dex.StringT)
	f2 := dex.NewFieldRef("com.a.B", "port", dex.Int)

	// Tainting a field also keeps the object local tainted (caller adds it).
	ts.AddLocal("r0")
	ts.AddField("r0", f1)
	ts.AddField("r0", f2)
	if !ts.HasField("r0", f1) || !ts.HasAnyFieldOf("r0") {
		t.Error("field taint lost")
	}

	// Removing one field keeps the object while another field remains.
	ts.RemoveField("r0", f1)
	if !ts.HasLocal("r0") {
		t.Error("object must stay tainted while fields remain")
	}
	// Removing the last field unta ints the object too (paper Sec. V-A).
	ts.RemoveField("r0", f2)
	if ts.HasLocal("r0") {
		t.Error("object must be untainted when its last field is removed")
	}
	if !ts.Empty() {
		t.Errorf("taint set should be empty, size=%d", ts.Size())
	}
}

func TestTaintSetStaticFields(t *testing.T) {
	ts := NewTaintSet()
	ts.AddStatic(fieldRef)
	if got := ts.StaticFields(); len(got) != 1 || got[0] != fieldRef {
		t.Errorf("StaticFields = %v", got)
	}
	ts.RemoveStatic(fieldRef)
	if !ts.Empty() {
		t.Error("static field removal failed")
	}
}

func TestTaintSetSizeProperty(t *testing.T) {
	// Adding n distinct locals then removing them empties the set.
	f := func(names []string) bool {
		ts := NewTaintSet()
		uniq := map[string]bool{}
		for _, n := range names {
			ts.AddLocal(n)
			uniq[n] = true
		}
		if ts.Size() != len(uniq) {
			return false
		}
		for n := range uniq {
			ts.RemoveLocal(n)
		}
		return ts.Empty()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGraphStringRendersFig6Shape(t *testing.T) {
	g, id := newGraph()
	u := g.AddUnit(id(methodA), methodA, 2, stmt("block"))
	g.MarkSink(u)
	g.AddEdge(CallEdge, u, id(methodB), methodB)
	entry := dex.NewMethodRef("com.a.Main", "onCreate", dex.Void)
	g.MarkEntry(id(entry), entry)
	s := g.String()
	for _, frag := range []string{
		"SSG for sink <javax.crypto.Cipher:",
		"[<com.a.A: void doWork()>]",
		"// sink",
		"edge(call): #0 -> <com.a.B: java.lang.String helper()>",
		"entry: <com.a.Main: void onCreate()>",
	} {
		if !strings.Contains(s, frag) {
			t.Errorf("SSG dump missing %q:\n%s", frag, s)
		}
	}
}
