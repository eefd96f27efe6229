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

func TestParseHumanTypeRoundTrip(t *testing.T) {
	tests := []TypeDesc{
		Void, Int, Bool, Long, Float, Double, Byte, Short, Char,
		StringT, T("com.foo.Bar"), Array(Int), Array(T("com.foo.Bar")),
	}
	for _, td := range tests {
		got, err := ParseHumanType(td.Human())
		if err != nil {
			t.Fatalf("ParseHumanType(%q): %v", td.Human(), err)
		}
		if got != td {
			t.Errorf("ParseHumanType(%q) = %q, want %q", td.Human(), got, td)
		}
	}
}

func TestParseHumanTypeEmpty(t *testing.T) {
	if _, err := ParseHumanType(""); err == nil {
		t.Error("ParseHumanType(\"\") should fail")
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

func TestParseDexMethodSignature(t *testing.T) {
	tests := []string{
		"Lcom/foo/Bar;.start:()V",
		"Lcom/foo/Bar;.run:(Ljava/lang/String;IZ)Ljava/lang/Object;",
		"Lcom/foo/Bar$1;.<init>:(Lcom/foo/Bar;)V",
		"Lcom/foo/Bar;.arr:([I[[Ljava/lang/String;)[B",
	}
	for _, sig := range tests {
		m, err := ParseDexMethodSignature(sig)
		if err != nil {
			t.Fatalf("ParseDexMethodSignature(%q): %v", sig, err)
		}
		if got := m.DexSignature(); got != sig {
			t.Errorf("round trip %q -> %q", sig, got)
		}
	}
}

func TestParseDexMethodSignatureErrors(t *testing.T) {
	bad := []string{"", "noclass", "Lcom/foo/Bar;.name", "Lcom/foo/Bar;.m:(Q)V", "Lcom/foo/Bar;.m:()"}
	for _, sig := range bad {
		if _, err := ParseDexMethodSignature(sig); err == nil {
			t.Errorf("ParseDexMethodSignature(%q) should fail", sig)
		}
	}
}

func TestParseSootMethodSignature(t *testing.T) {
	tests := []string{
		"<com.foo.Bar: void start()>",
		"<com.foo.Bar: java.lang.Object run(java.lang.String,int,boolean)>",
		"<com.foo.Bar$1: void <init>(com.foo.Bar)>",
	}
	for _, sig := range tests {
		m, err := ParseSootMethodSignature(sig)
		if err != nil {
			t.Fatalf("ParseSootMethodSignature(%q): %v", sig, err)
		}
		if got := m.SootSignature(); got != sig {
			t.Errorf("round trip %q -> %q", sig, got)
		}
	}
}

func TestParseSootMethodSignatureErrors(t *testing.T) {
	bad := []string{"", "<nope>", "com.foo.Bar: void start()", "<com.foo.Bar: voidstart()>"}
	for _, sig := range bad {
		if _, err := ParseSootMethodSignature(sig); err == nil {
			t.Errorf("ParseSootMethodSignature(%q) should fail", sig)
		}
	}
}

func TestSignatureFormatTranslationProperty(t *testing.T) {
	// The paper's Fig. 3 translation loop: Soot format -> dex format ->
	// parse -> Soot format must be the identity for any well-formed ref.
	classNames := []string{"com.a.B", "com.a.B$1", "org.x.Y", "a.b.c.D"}
	typePool := []TypeDesc{Int, Bool, Long, StringT, T("com.a.B"), Array(Int), Array(StringT)}
	f := func(ci, name uint8, p1, p2, r uint8) bool {
		ref := MethodRef{
			Class: classNames[int(ci)%len(classNames)],
			Name:  []string{"run", "start", "<init>", "doWork"}[int(name)%4],
			Params: []TypeDesc{
				typePool[int(p1)%len(typePool)],
				typePool[int(p2)%len(typePool)],
			},
			Ret: typePool[int(r)%len(typePool)],
		}
		fromDex, err := ParseDexMethodSignature(ref.DexSignature())
		if err != nil {
			return false
		}
		fromSoot, err := ParseSootMethodSignature(ref.SootSignature())
		if err != nil {
			return false
		}
		return fromDex.SootSignature() == ref.SootSignature() &&
			fromSoot.DexSignature() == ref.DexSignature()
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
