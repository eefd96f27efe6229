package ir

import (
	"fmt"
	"testing"

	"backdroid/internal/android"
	"backdroid/internal/appgen"
	"backdroid/internal/dex"
	"backdroid/internal/testapps"
)

// TestProgramCollidingSignatures: a method named "a(b" with no parameters
// and a method "a" taking the class "b(" both print as
// <com.ex.A: void a(b()>, and the dex decoder accepts both names. The
// method table must still tell them apart: two IDs, and each ID gets its
// own body.
func TestProgramCollidingSignatures(t *testing.T) {
	cb := dex.NewClass("com.ex.A")
	first := cb.StaticMethod("a(b", dex.Void).ReturnVoid().Ref()
	mb := cb.StaticMethod("a", dex.Void, dex.TypeDesc("Lb(;"))
	r := mb.Reg()
	second := mb.Const(r, 7).ReturnVoid().Ref()
	f := dex.NewFile()
	if err := f.AddClass(mb.Done().Build()); err != nil {
		t.Fatal(err)
	}
	decoded, err := dex.Decode(dex.Encode(f))
	if err != nil {
		t.Fatalf("the decoder rejects the colliding names: %v", err)
	}
	if first.SootSignature() != second.SootSignature() {
		t.Fatalf("no collision: %s vs %s", first, second)
	}

	p := NewProgram(decoded)
	if p.ID(first) == p.ID(second) {
		t.Fatalf("colliding refs share ID %d", p.ID(first))
	}
	b1, err := p.Body(first)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := p.Body(second)
	if err != nil {
		t.Fatal(err)
	}
	if b1 == b2 || !b1.Method.Equal(first) || !b2.Method.Equal(second) {
		t.Errorf("Body(%#v) and Body(%#v) returned the bodies of %#v and %#v",
			first, second, b1.Method, b2.Method)
	}
}

// refsOf lists every method ref a dex file names: each method's own ref
// and each invoke target, in file order, repeats included.
func refsOf(f *dex.File) []dex.MethodRef {
	var out []dex.MethodRef
	for _, c := range f.Classes() {
		for _, m := range c.Methods {
			out = append(out, m.Ref)
			for _, in := range m.Instructions() {
				if in.Method != nil {
					out = append(out, *in.Method)
				}
			}
		}
	}
	return out
}

// exactKey spells a ref so that two refs share the key exactly when they
// are Equal.
func exactKey(r dex.MethodRef) string {
	return fmt.Sprintf("%q %q %q %q", r.Class, r.Name, r.Ret, r.Params)
}

// TestProgramIDMatchesEqual: over every method ref of the 24-app bench
// corpus, the fixture and the android sink specs, one program per app,
// ID(a) == ID(b) exactly when a.Equal(b), and Ref(ID(r)) is Equal to r.
func TestProgramIDMatchesEqual(t *testing.T) {
	var sinkRefs []dex.MethodRef
	for _, s := range android.DefaultSinks() {
		sinkRefs = append(sinkRefs, s.Method)
	}
	fixture, err := testapps.Fixture()
	if err != nil {
		t.Fatal(err)
	}
	apps := [][]byte{}
	names := []string{}
	for _, d := range fixture.Dexes {
		apps = append(apps, dex.Encode(d))
		names = append(names, fixture.Name)
	}
	for _, spec := range appgen.EvalCorpus(appgen.CorpusOptions{Apps: 24, SizeScale: 0.15, Seed: 20200523}) {
		app, _, err := appgen.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		merged, err := app.MergedDex()
		if err != nil {
			t.Fatal(err)
		}
		apps = append(apps, dex.Encode(merged))
		names = append(names, spec.Name)
	}

	total := 0
	for i, data := range apps {
		f, err := dex.Decode(data)
		if err != nil {
			t.Fatalf("%s: %v", names[i], err)
		}
		refs := append(refsOf(f), sinkRefs...)
		p := NewProgram(f)
		idOf := make(map[string]MethodID)
		keyOf := make(map[MethodID]string)
		for _, r := range refs {
			id, k := p.ID(r), exactKey(r)
			if want, ok := idOf[k]; ok && want != id {
				t.Fatalf("%s: Equal refs %s got IDs %d and %d", names[i], r, want, id)
			}
			if other, ok := keyOf[id]; ok && other != k {
				t.Fatalf("%s: ID %d names both %s and %s", names[i], id, other, k)
			}
			idOf[k], keyOf[id] = id, k
			if got := p.Ref(id); !got.Equal(r) {
				t.Fatalf("%s: Ref(ID(%#v)) = %#v", names[i], r, got)
			}
		}
		if int(p.ID(dex.NewMethodRef("com.ex.Unseen", "m", dex.Void))) != len(idOf) {
			t.Errorf("%s: IDs are not dense: %d distinct refs", names[i], len(idOf))
		}
		total += len(refs)
	}
	if total < 10000 {
		t.Errorf("only %d refs checked", total)
	}
}

// TestProgramsDoNotShareIDs: each program numbers methods on its own, so
// one program's growth never moves another's IDs.
func TestProgramsDoNotShareIDs(t *testing.T) {
	a := dex.NewMethodRef("com.a.A", "m", dex.Void)
	b := dex.NewMethodRef("com.a.B", "m", dex.Void)
	c := dex.NewMethodRef("com.a.C", "m", dex.Int, dex.StringT)
	p1, p2 := NewProgram(dex.NewFile()), NewProgram(dex.NewFile())
	for i, r := range []dex.MethodRef{a, b, c} {
		if id := p1.ID(r); int(id) != i {
			t.Fatalf("p1.ID(%s) = %d, want %d", r, id, i)
		}
	}
	if id := p2.ID(c); id != 0 {
		t.Errorf("p2's first ref got ID %d, want 0", id)
	}
	if id := p2.ID(a); id != 1 {
		t.Errorf("p2's second ref got ID %d, want 1", id)
	}
	if id := p1.ID(dex.NewMethodRef("com.a.D", "m", dex.Void)); id != 3 {
		t.Errorf("p1's fourth ref got ID %d, want 3", id)
	}
	if got := p1.Ref(0); !got.Equal(a) {
		t.Errorf("p1.Ref(0) = %s, want %s", got, a)
	}
	if got := p2.Ref(0); !got.Equal(c) {
		t.Errorf("p2.Ref(0) = %s, want %s", got, c)
	}
}

// TestProgramReturnTypeOverload: static int m() and String m() in one
// class are two methods (dex allows overloading on the return type), and
// Body gives each ref its own body.
func TestProgramReturnTypeOverload(t *testing.T) {
	cb := dex.NewClass("com.ex.A")
	ib := cb.StaticMethod("m", dex.Int)
	r := ib.Reg()
	intRef := ib.Const(r, 7).Return(r).Ref()
	sb := cb.StaticMethod("m", dex.StringT)
	r = sb.Reg()
	strRef := sb.ConstString(r, "seven").Return(r).Ref()
	f := dex.NewFile()
	if err := f.AddClass(sb.Done().Build()); err != nil {
		t.Fatal(err)
	}
	p := NewProgram(f)
	for _, ref := range []dex.MethodRef{intRef, strRef} {
		b, err := p.Body(ref)
		if err != nil {
			t.Fatal(err)
		}
		if !b.Method.Equal(ref) {
			t.Errorf("Body(%v) returned the body of %v", ref, b.Method)
		}
	}
}
