package dex

import (
	"strings"
	"testing"
)

func TestAccessFlagsString(t *testing.T) {
	tests := []struct {
		give AccessFlags
		want string
	}{
		{AccPublic, "0x0001 (PUBLIC)"},
		{AccPublic | AccStatic, "0x0009 (PUBLIC STATIC)"},
		{AccPrivate | AccFinal, "0x0012 (PRIVATE FINAL)"},
	}
	for _, tt := range tests {
		if got := tt.give.String(); got != tt.want {
			t.Errorf("String(%#x) = %q, want %q", uint32(tt.give), got, tt.want)
		}
	}
	if got := (AccPublic | AccConstructor).String(); !strings.Contains(got, "CONSTRUCTOR") {
		t.Errorf("constructor flag missing from %q", got)
	}
}

func TestBuilderBasicClass(t *testing.T) {
	cb := NewClass("com.example.Server").
		Extends("com.example.BaseServer").
		Implements("java.lang.Runnable").
		Field("port", Int).
		StaticField("NAME", StringT)
	mb := cb.Method("run", Void)
	r := mb.Reg()
	mb.Const(r, 42).ReturnVoid().Done()
	c := cb.Build()

	if c.Super != "com.example.BaseServer" {
		t.Errorf("Super = %q", c.Super)
	}
	if len(c.Interfaces) != 1 || c.Interfaces[0] != "java.lang.Runnable" {
		t.Errorf("Interfaces = %v", c.Interfaces)
	}
	if f := c.FindField("port"); f == nil || f.IsStatic() {
		t.Error("port field wrong")
	}
	if f := c.FindField("NAME"); f == nil || !f.IsStatic() {
		t.Error("NAME field wrong")
	}
	m := c.FindMethod("run")
	if m == nil {
		t.Fatal("run method missing")
	}
	if m.Ins != 1 { // receiver only
		t.Errorf("Ins = %d, want 1", m.Ins)
	}
	if m.Registers != 2 {
		t.Errorf("Registers = %d, want 2", m.Registers)
	}
	if len(m.Code) != 2 {
		t.Errorf("len(Code) = %d, want 2", len(m.Code))
	}
}

func TestBuilderLabels(t *testing.T) {
	cb := NewClass("com.example.Loop")
	mb := cb.StaticMethod("f", Int, Int)
	p := mb.Param(0)
	out := mb.Reg()
	mb.Const(out, 0).
		Label("head").
		IfZ(OpIfEqz, p, "end").
		AddLit(out, out, 1).
		AddLit(p, p, -1).
		Goto("head").
		Label("end").
		Return(out).
		Done()
	c := cb.Build()
	m := c.FindMethod("f", Int)
	if m == nil {
		t.Fatal("method missing")
	}
	// if-eqz at index 1 must target "end" (index 5), goto at 4 targets 1.
	if m.Code[1].Op != OpIfEqz || m.Code[1].Target != 5 {
		t.Errorf("if target = %d, want 5", m.Code[1].Target)
	}
	if m.Code[4].Op != OpGoto || m.Code[4].Target != 1 {
		t.Errorf("goto target = %d, want 1", m.Code[4].Target)
	}
	// Static method: Param(0) is v0.
	if p != 0 {
		t.Errorf("static Param(0) = %d, want 0", p)
	}
}

func TestBuilderInstanceParamRegisters(t *testing.T) {
	cb := NewClass("com.example.P")
	mb := cb.Method("m", Void, Int, StringT)
	if mb.This() != 0 || mb.Param(0) != 1 || mb.Param(1) != 2 {
		t.Errorf("registers: this=%d p0=%d p1=%d", mb.This(), mb.Param(0), mb.Param(1))
	}
	mb.ReturnVoid().Done()
	m := cb.Build().FindMethod("m", Int, StringT)
	if m.Ins != 3 {
		t.Errorf("Ins = %d, want 3", m.Ins)
	}
}

func TestBuilderUndefinedLabelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Done with undefined label must panic")
		}
	}()
	NewClass("com.example.Bad").Method("m", Void).Goto("nowhere").Done()
}

func TestDirectVirtualSplit(t *testing.T) {
	cb := NewClass("com.example.Mix")
	cb.Constructor().ReturnVoid().Done()
	cb.StaticMethod("s", Void).ReturnVoid().Done()
	cb.PrivateMethod("p", Void).ReturnVoid().Done()
	cb.Method("v", Void).ReturnVoid().Done()
	c := cb.Build()
	if got := len(c.DirectMethods()); got != 3 {
		t.Errorf("DirectMethods = %d, want 3", got)
	}
	if got := len(c.VirtualMethods()); got != 1 {
		t.Errorf("VirtualMethods = %d, want 1", got)
	}
}

func TestFileAddAndLookup(t *testing.T) {
	f := NewFile()
	c := NewClass("com.example.A").Build()
	if err := f.AddClass(c); err != nil {
		t.Fatal(err)
	}
	if err := f.AddClass(NewClass("com.example.A").Build()); err == nil {
		t.Error("duplicate class must be rejected")
	}
	if f.Class("com.example.A") != c {
		t.Error("Class lookup failed")
	}
	if f.Class("com.example.Missing") != nil {
		t.Error("missing class should be nil")
	}
}

func TestFileMerge(t *testing.T) {
	f1 := NewFile()
	f2 := NewFile()
	if err := f1.AddClass(NewClass("com.a.A").Build()); err != nil {
		t.Fatal(err)
	}
	if err := f2.AddClass(NewClass("com.b.B").Build()); err != nil {
		t.Fatal(err)
	}
	if err := f1.Merge(f2); err != nil {
		t.Fatal(err)
	}
	if len(f1.Classes()) != 2 {
		t.Errorf("merged classes = %d, want 2", len(f1.Classes()))
	}
	if err := f1.Merge(f2); err == nil {
		t.Error("re-merge must fail on duplicates")
	}
}

func TestFileMethodResolution(t *testing.T) {
	f := NewFile()
	cb := NewClass("com.example.A")
	cb.Method("m", Int, Bool).Const(2, 1).Return(2).Done()
	if err := f.AddClass(cb.Build()); err != nil {
		t.Fatal(err)
	}
	ref := NewMethodRef("com.example.A", "m", Int, Bool)
	if f.Method(ref) == nil {
		t.Error("Method lookup failed")
	}
	if f.Method(ref.WithClass("com.example.B")) != nil {
		t.Error("lookup in missing class should be nil")
	}
	if f.Method(NewMethodRef("com.example.A", "m", Int, Int)) != nil {
		t.Error("lookup with wrong params should be nil")
	}
	if f.Method(NewMethodRef("com.example.A", "m", Bool, Bool)) != nil {
		t.Error("lookup with the wrong return type should be nil")
	}
}

func TestInstructionCountAndMethodCount(t *testing.T) {
	f := NewFile()
	cb := NewClass("com.example.A")
	cb.Method("m1", Void).ReturnVoid().Done()
	cb.Method("m2", Void).Const(1, 5).ReturnVoid().Done()
	if err := f.AddClass(cb.Build()); err != nil {
		t.Fatal(err)
	}
	if got := f.InstructionCount(); got != 3 {
		t.Errorf("InstructionCount = %d, want 3", got)
	}
	if got := f.MethodCount(); got != 2 {
		t.Errorf("MethodCount = %d, want 2", got)
	}
}

func TestInstructionFormat(t *testing.T) {
	start := NewMethodRef("com.connectsdk.service.netcast.NetcastHttpServer", "start", Void)
	in := Instruction{Op: OpInvokeVirtual, Method: &start, Args: []int{0}}
	if got, want := in.Format(), "invoke-virtual {v0}, Lcom/connectsdk/service/netcast/NetcastHttpServer;.start:()V"; got != want {
		t.Errorf("Format = %q, want %q", got, want)
	}

	fld := NewFieldRef("com.a.B", "httpServer", T("com.a.Server"))
	ig := Instruction{Op: OpIGet, A: 0, B: 5, Field: &fld}
	if got := ig.Format(); !strings.HasPrefix(got, "iget-object v0, v5, Lcom/a/B;.httpServer:") {
		t.Errorf("Format = %q", got)
	}

	cs := Instruction{Op: OpConstString, A: 1, Str: "AES/ECB/PKCS5Padding"}
	if got := cs.Format(); !strings.Contains(got, `"AES/ECB/PKCS5Padding"`) {
		t.Errorf("Format = %q", got)
	}

	cc := Instruction{Op: OpConstClass, A: 2, Type: T("com.lge.app1.fota.HttpServerService")}
	if got := cc.Format(); !strings.Contains(got, "Lcom/lge/app1/fota/HttpServerService;") {
		t.Errorf("Format = %q", got)
	}
}

func TestOpPredicates(t *testing.T) {
	if !OpInvokeVirtual.IsInvoke() || OpConst.IsInvoke() {
		t.Error("IsInvoke wrong")
	}
	if !OpIfEq.IsBranch() || !OpGoto.IsBranch() || OpReturn.IsBranch() {
		t.Error("IsBranch wrong")
	}
	if !OpIfEq.IsConditional() || OpGoto.IsConditional() {
		t.Error("IsConditional wrong")
	}
	if !OpAdd.IsBinop() || OpAddLit.IsBinop() {
		t.Error("IsBinop wrong")
	}
	if !OpReturnVoid.Terminates() || !OpGoto.Terminates() || OpIfEq.Terminates() {
		t.Error("Terminates wrong")
	}
}
