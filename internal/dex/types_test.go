package dex

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestTypeDescHuman(t *testing.T) {
	tests := []struct {
		give TypeDesc
		want string
	}{
		{Void, "void"},
		{Int, "int"},
		{Bool, "boolean"},
		{Long, "long"},
		{Float, "float"},
		{Double, "double"},
		{Byte, "byte"},
		{Short, "short"},
		{Char, "char"},
		{StringT, "java.lang.String"},
		{T("com.foo.Bar$1"), "com.foo.Bar$1"},
		{Array(Int), "int[]"},
		{Array(Array(StringT)), "java.lang.String[][]"},
	}
	for _, tt := range tests {
		if got := tt.give.Human(); got != tt.want {
			t.Errorf("Human(%q) = %q, want %q", tt.give, got, tt.want)
		}
	}
}

func TestTypeDescPredicates(t *testing.T) {
	if !StringT.IsObject() || !StringT.IsRef() || StringT.IsArray() || StringT.IsPrimitive() {
		t.Error("StringT predicates wrong")
	}
	arr := Array(Int)
	if !arr.IsArray() || !arr.IsRef() || arr.IsObject() || arr.IsPrimitive() {
		t.Error("array predicates wrong")
	}
	if !Int.IsPrimitive() || Int.IsRef() {
		t.Error("int predicates wrong")
	}
	if Void.IsPrimitive() {
		t.Error("void must not be primitive")
	}
	if arr.Elem() != Int {
		t.Errorf("Elem() = %q, want I", arr.Elem())
	}
}

func TestMethodRefSignatures(t *testing.T) {
	m := NewMethodRef("com.connectsdk.service.netcast.NetcastHttpServer", "start", Void)
	if got, want := m.DexSignature(), "Lcom/connectsdk/service/netcast/NetcastHttpServer;.start:()V"; got != want {
		t.Errorf("DexSignature = %q, want %q", got, want)
	}
	if got, want := m.SootSignature(), "<com.connectsdk.service.netcast.NetcastHttpServer: void start()>"; got != want {
		t.Errorf("SootSignature = %q, want %q", got, want)
	}

	m2 := NewMethodRef("com.connectsdk.core.Util", "runInBackground", Void, T("java.lang.Runnable"), Bool)
	if got, want := m2.DexSignature(), "Lcom/connectsdk/core/Util;.runInBackground:(Ljava/lang/Runnable;Z)V"; got != want {
		t.Errorf("DexSignature = %q, want %q", got, want)
	}
	if got, want := m2.SubSignature(), "void runInBackground(java.lang.Runnable,boolean)"; got != want {
		t.Errorf("SubSignature = %q, want %q", got, want)
	}

	same := NewMethodRef("com.connectsdk.core.Util", "runInBackground", Void, T("java.lang.Runnable"), Bool)
	if !m2.Equal(same) || !same.Equal(m2) {
		t.Errorf("%v and an identical ref are not Equal", m2)
	}
	for _, other := range []MethodRef{
		m2.WithClass("com.connectsdk.core.Other"),
		NewMethodRef("com.connectsdk.core.Util", "runLater", Void, T("java.lang.Runnable"), Bool),
		NewMethodRef("com.connectsdk.core.Util", "runInBackground", Int, T("java.lang.Runnable"), Bool),
		NewMethodRef("com.connectsdk.core.Util", "runInBackground", Void, T("java.lang.Runnable")),
		NewMethodRef("com.connectsdk.core.Util", "runInBackground", Void, T("java.lang.Runnable"), Int),
	} {
		if m2.Equal(other) || other.Equal(m2) {
			t.Errorf("%v Equal %v", m2, other)
		}
	}
}

// dexOracle spells a dexdump method signature the plain way, part by
// part.
func dexOracle(m MethodRef) string {
	var params strings.Builder
	for _, p := range m.Params {
		params.WriteString(string(p))
	}
	return "L" + strings.ReplaceAll(m.Class, ".", "/") + ";." + m.Name + ":(" + params.String() + ")" + string(m.Ret)
}

func TestSignatureFormatTranslationProperty(t *testing.T) {
	// The paper's Fig. 3 translation renders one ref in both formats:
	// the dex format the search space greps for and the Soot format of
	// the analysis space. Each rendering must be its oracle's, and the
	// dex rendering tells different refs apart.
	classNames := []string{"com.a.B", "com.a.B$1", "org.x.Y", "a.b.c.D"}
	typePool := []TypeDesc{Int, Bool, Long, StringT, T("com.a.B"), Array(Int), Array(StringT)}
	ref := func(ci, name, p1, p2, r uint8) MethodRef {
		return MethodRef{
			Class: classNames[int(ci)%len(classNames)],
			Name:  []string{"run", "start", "<init>", "doWork"}[int(name)%4],
			Params: []TypeDesc{
				typePool[int(p1)%len(typePool)],
				typePool[int(p2)%len(typePool)],
			},
			Ret: typePool[int(r)%len(typePool)],
		}
	}
	f := func(a, b [5]uint8) bool {
		ra, rb := ref(a[0], a[1], a[2], a[3], a[4]), ref(b[0], b[1], b[2], b[3], b[4])
		return ra.DexSignature() == dexOracle(ra) && ra.SootSignature() == sootOracle(ra) &&
			(ra.DexSignature() == rb.DexSignature()) == ra.Equal(rb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFieldRefSignatures(t *testing.T) {
	f := NewFieldRef("com.studiosol.util.NanoHTTPD", "myPort", Int)
	if got, want := f.DexSignature(), "Lcom/studiosol/util/NanoHTTPD;.myPort:I"; got != want {
		t.Errorf("DexSignature = %q, want %q", got, want)
	}
	if got, want := f.SootSignature(), "<com.studiosol.util.NanoHTTPD: int myPort>"; got != want {
		t.Errorf("SootSignature = %q, want %q", got, want)
	}
}

func TestMethodRefWithClass(t *testing.T) {
	m := NewMethodRef("com.a.Parent", "start", Void)
	child := m.WithClass("com.a.Child")
	if child.Class != "com.a.Child" || child.Name != "start" {
		t.Errorf("WithClass = %+v", child)
	}
	if m.Class != "com.a.Parent" {
		t.Error("WithClass must not mutate the receiver")
	}
}

// humanOracle spells a descriptor's Java form the plain, recursive way.
func humanOracle(t TypeDesc) string {
	switch {
	case t.IsArray():
		return humanOracle(t.Elem()) + "[]"
	case t.IsObject():
		return t.ClassName()
	}
	for _, p := range []struct {
		t    TypeDesc
		name string
	}{{Void, "void"}, {Int, "int"}, {Bool, "boolean"}, {Long, "long"}, {Float, "float"},
		{Double, "double"}, {Byte, "byte"}, {Short, "short"}, {Char, "char"}} {
		if t == p.t {
			return p.name
		}
	}
	return string(t)
}

// sootOracle spells a Soot signature the plain way, part by part; the
// appenders behind SootSignature must render exactly the same text.
func sootOracle(m MethodRef) string {
	parts := make([]string, len(m.Params))
	for i, p := range m.Params {
		parts[i] = humanOracle(p)
	}
	return "<" + m.Class + ": " + humanOracle(m.Ret) + " " + m.Name + "(" + strings.Join(parts, ",") + ")>"
}

func TestSootSignatureMatchesOracle(t *testing.T) {
	types := []TypeDesc{"", "[", "[[", "L;", "Lx", "L/a/b;", "Q", "V", "I", "[I", "[[Ljava/lang/String;", StringT, "Lb(;"}
	for _, ret := range types {
		for _, p := range types {
			m := NewMethodRef("com.ex.A", "a(b", ret, p, Int)
			if got, want := m.SootSignature(), sootOracle(m); got != want {
				t.Errorf("SootSignature(%#v) = %q, want %q", m, got, want)
			}
			if got, want := string(p.AppendHuman([]byte("x"))), "x"+humanOracle(p); got != want {
				t.Errorf("AppendHuman(%q) = %q, want %q", p, got, want)
			}
		}
	}
	f := func(class, name string, ret string, params []string) bool {
		m := MethodRef{Class: class, Name: name, Ret: TypeDesc(ret)}
		for _, p := range params {
			m.Params = append(m.Params, TypeDesc(p), TypeDesc("L"+p+";"), TypeDesc("["+p))
		}
		for _, p := range m.Params {
			if p.Human() != humanOracle(p) {
				return false
			}
		}
		want := sootOracle(m)
		return m.SootSignature() == want && "<"+m.Class+": "+m.SubSignature()+">" == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
