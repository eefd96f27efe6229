package ssg

import (
	"runtime"
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
	return &ir.AssignStmt{LHS: &ir.Local{Reg: 0, In: true}, RHS: ir.StringConst{V: s}}
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
	ta.AddLocal(1)
	if !g.Taints(id(methodA)).HasLocal(1) {
		t.Error("taint set must persist per method")
	}
	if g.Taints(id(methodB)).HasLocal(1) {
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
	ts.AddLocal(0)
	ts.AddField(0, f1)
	ts.AddField(0, f2)
	if !ts.HasField(0, f1) || !ts.HasAnyFieldOf(0) {
		t.Error("field taint lost")
	}

	// Removing one field keeps the object while another field remains.
	ts.RemoveField(0, f1)
	if !ts.HasLocal(0) {
		t.Error("object must stay tainted while fields remain")
	}
	// Removing the last field untaints the object too (paper Sec. V-A).
	ts.RemoveField(0, f2)
	if ts.HasLocal(0) {
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
	// Adding n distinct registers then removing them empties the set.
	f := func(regs []uint16) bool {
		ts := NewTaintSet()
		uniq := map[int]bool{}
		for _, r := range regs {
			n := int(r)
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

// maxRegister is the highest register a body can have: Translate refuses
// register counts past the u16 Dalvik stores (ir's maxRegisters, 65,535).
const maxRegister = 1<<16 - 1

// TestTaintSetRegisters covers the register bitset at its word edges and
// at the top of the register file, the return flag, and field taints
// keyed per register.
func TestTaintSetRegisters(t *testing.T) {
	regs := []int{0, 63, 64, maxRegister}
	ts := NewTaintSet()
	for _, r := range regs {
		ts.AddLocal(r)
	}
	for _, r := range []int{1, 62, 65, 127, 128, maxRegister - 1} {
		if ts.HasLocal(r) {
			t.Errorf("register %d tainted, only %v were", r, regs)
		}
	}
	for i, r := range regs {
		if !ts.HasLocal(r) || ts.Size() != len(regs)-i {
			t.Fatalf("register %d: tainted %v, size %d", r, ts.HasLocal(r), ts.Size())
		}
		ts.RemoveLocal(r)
		if ts.HasLocal(r) {
			t.Errorf("register %d still tainted after RemoveLocal", r)
		}
	}
	if !ts.Empty() {
		t.Fatalf("size %d after removing every register", ts.Size())
	}
	ts.RemoveLocal(maxRegister + 64) // past the words: a no-op

	// The return flag is one entry of its own, apart from every register.
	ts.AddReturn()
	if !ts.HasReturn() || ts.HasLocal(0) || ts.Size() != 1 {
		t.Errorf("return flag: has %v, register 0 %v, size %d", ts.HasReturn(), ts.HasLocal(0), ts.Size())
	}
	ts.RemoveReturn()
	if ts.HasReturn() || !ts.Empty() {
		t.Error("return flag survived RemoveReturn")
	}

	// Field taints belong to one register: the same field on another
	// register, or register 64 against register 0, is a different taint.
	host := dex.NewFieldRef("com.a.B", "host", dex.StringT)
	port := dex.NewFieldRef("com.a.B", "port", dex.Int)
	for _, r := range []int{0, 64, maxRegister} {
		ts.AddLocal(r)
		ts.AddField(r, host)
	}
	ts.AddField(64, port)
	if ts.HasField(0, port) || !ts.HasField(64, port) || ts.HasAnyFieldOf(1) || ts.HasAnyFieldOf(128) {
		t.Error("a field taint leaked across registers")
	}
	if got := ts.FieldsOf(64); len(got) != 2 {
		t.Errorf("FieldsOf(64) = %v, want host and port", got)
	}
	ts.RemoveField(64, host)
	if !ts.HasLocal(64) || !ts.HasField(64, port) {
		t.Error("register 64 lost its object taint while port stays tainted")
	}
	ts.RemoveField(64, port)
	if ts.HasLocal(64) || ts.HasAnyFieldOf(64) || !ts.HasField(0, host) || !ts.HasField(maxRegister, host) {
		t.Error("removing register 64's last field must untaint it and only it")
	}
	if ts.Size() != 4 { // registers 0 and maxRegister, one field each
		t.Errorf("size %d, want 4", ts.Size())
	}

	// A set of a few low registers costs its struct and one bitset word,
	// whatever the width of the register file: 65,535 registers would
	// take 8 KiB of words.
	const sets = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range sets {
		keptSet = NewTaintSet()
		keptSet.AddLocal(3)
		keptSet.AddLocal(60)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / sets; per > 128 {
		t.Errorf("a set of registers 3 and 60 allocates %d bytes", per)
	}
}

// keptSet keeps the sets TestTaintSetRegisters measures on the heap.
var keptSet *TaintSet
