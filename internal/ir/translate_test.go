package ir

import (
	"errors"
	"strings"
	"testing"

	"backdroid/internal/dex"
)

func mustTranslate(t *testing.T, m *dex.Method) *Body {
	t.Helper()
	b, err := Translate(m)
	if err != nil {
		t.Fatalf("Translate(%s): %v", m.Ref, err)
	}
	return b
}

func TestTranslateIdentityStatements(t *testing.T) {
	cb := dex.NewClass("com.a.B")
	cb.Method("m", dex.Void, dex.StringT, dex.Int).ReturnVoid().Done()
	b := mustTranslate(t, cb.Build().FindMethod("m", dex.StringT, dex.Int))

	if len(b.Units) != 4 { // this + 2 params + return
		t.Fatalf("units = %d, want 4", len(b.Units))
	}
	if got := b.Units[0].String(); got != "r0 := @this: com.a.B" {
		t.Errorf("unit 0 = %q", got)
	}
	if got := b.Units[1].String(); got != "r1 := @parameter0: java.lang.String" {
		t.Errorf("unit 1 = %q", got)
	}
	if got := b.Units[2].String(); got != "r2 := @parameter1: int" {
		t.Errorf("unit 2 = %q", got)
	}
	if b.IsStatic() {
		t.Error("instance method reported static")
	}
}

func TestTranslateStaticNoThis(t *testing.T) {
	cb := dex.NewClass("com.a.B")
	cb.StaticMethod("s", dex.Void, dex.Int).ReturnVoid().Done()
	b := mustTranslate(t, cb.Build().FindMethod("s", dex.Int))
	if got := b.Units[0].String(); got != "r0 := @parameter0: int" {
		t.Errorf("unit 0 = %q", got)
	}
	if !b.IsStatic() {
		t.Error("static method not reported static")
	}
}

// TestTranslateRegisters pins the register facts a body computes once at
// translation: the @this register, the identity statement binding each
// register, and the spelling of registers inside and past the shared
// name table.
func TestTranslateRegisters(t *testing.T) {
	cb := dex.NewClass("com.a.B")
	cb.Method("m", dex.Void, dex.StringT).ReturnVoid().Done()
	cb.StaticMethod("s", dex.Void, dex.Int).ReturnVoid().Done()
	c := cb.Build()
	inst := mustTranslate(t, c.FindMethod("m", dex.StringT))
	static := mustTranslate(t, c.FindMethod("s", dex.Int))
	if inst.This != 0 || static.This != -1 {
		t.Errorf("This = %d and %d, want 0 and -1", inst.This, static.This)
	}
	for r, want := range []int{0, 1, -1} {
		if got := inst.IdentityOf(r); got != want {
			t.Errorf("instance IdentityOf(%d) = %d, want %d", r, got, want)
		}
	}
	if got := static.IdentityOf(1); got != -1 {
		t.Errorf("static IdentityOf(1) = %d, want -1", got)
	}
	for _, c := range []struct {
		l    Local
		want string
	}{
		{Local{Reg: 0, In: true}, "r0"},
		{Local{Reg: 7}, "$r7"},
		{Local{Reg: spelledRegs - 1}, "$r255"},
		{Local{Reg: spelledRegs, In: true}, "r256"},
		{Local{Reg: maxRegisters - 1}, "$r65534"},
	} {
		if got := c.l.String(); got != c.want {
			t.Errorf("register %d (in %v) spelled %q, want %q", c.l.Reg, c.l.In, got, c.want)
		}
	}
}

func TestTranslateInvokeMoveResultMerge(t *testing.T) {
	cb := dex.NewClass("com.a.B")
	mb := cb.Method("m", dex.Void)
	r := mb.Reg()
	getInstance := dex.NewMethodRef("javax.crypto.Cipher", "getInstance",
		dex.T("javax.crypto.Cipher"), dex.StringT)
	s := mb.Reg()
	mb.ConstString(s, "AES/ECB/PKCS5Padding").
		InvokeStatic(getInstance, s).
		MoveResult(r).
		ReturnVoid().Done()
	b := mustTranslate(t, cb.Build().FindMethod("m"))

	// this-identity, const-string, merged assign, return = 4 units.
	if len(b.Units) != 4 {
		t.Fatalf("units = %d, want 4: %v", len(b.Units), b.Units)
	}
	as, ok := b.Units[2].(*AssignStmt)
	if !ok {
		t.Fatalf("unit 2 = %T, want AssignStmt", b.Units[2])
	}
	inv, ok := as.RHS.(*InvokeExpr)
	if !ok || inv.Kind != KindStatic {
		t.Fatalf("RHS = %v", as.RHS)
	}
	if !strings.Contains(as.String(), "staticinvoke <javax.crypto.Cipher: javax.crypto.Cipher getInstance(java.lang.String)>") {
		t.Errorf("assign = %q", as.String())
	}
	// The merged local carries the return type.
	lhs := as.LHS.(*Local)
	if lhs.Type != dex.T("javax.crypto.Cipher") {
		t.Errorf("result local type = %s", lhs.Type)
	}
}

func TestTranslateBranchTargetRemap(t *testing.T) {
	cb := dex.NewClass("com.a.B")
	mb := cb.StaticMethod("f", dex.Int, dex.Int)
	p := mb.Param(0)
	r := mb.Reg()
	helper := dex.NewMethodRef("com.a.B", "h", dex.Int)
	mb.IfZ(dex.OpIfEqz, p, "zero").
		InvokeStatic(helper).
		MoveResult(r).
		Goto("end").
		Label("zero").
		Const(r, 0).
		Label("end").
		Return(r).
		Done()
	b := mustTranslate(t, cb.Build().FindMethod("f", dex.Int))

	// Layout: 0 id, 1 if, 2 merged invoke+move, 3 goto, 4 const, 5 return.
	ifs, ok := b.Units[1].(*IfStmt)
	if !ok {
		t.Fatalf("unit 1 = %T", b.Units[1])
	}
	if ifs.Target != 4 {
		t.Errorf("if target = %d, want 4 (const)", ifs.Target)
	}
	gs, ok := b.Units[3].(*GotoStmt)
	if !ok {
		t.Fatalf("unit 3 = %T", b.Units[3])
	}
	if gs.Target != 5 {
		t.Errorf("goto target = %d, want 5 (return)", gs.Target)
	}
}

func TestTranslateFieldsAndArrays(t *testing.T) {
	fld := dex.NewFieldRef("com.a.B", "port", dex.Int)
	sfld := dex.NewFieldRef("com.a.B", "NAME", dex.StringT)
	cb := dex.NewClass("com.a.B").Field("port", dex.Int).StaticField("NAME", dex.StringT)
	mb := cb.Method("m", dex.Void)
	v, arr, idx := mb.Reg(), mb.Reg(), mb.Reg()
	mb.IGet(v, mb.This(), fld).
		IPut(v, mb.This(), fld).
		SGet(v, sfld).
		SPut(v, sfld).
		Const(idx, 0).
		NewArray(arr, idx, dex.Int).
		AGet(v, arr, idx).
		APut(v, arr, idx).
		ReturnVoid().Done()
	b := mustTranslate(t, cb.Build().FindMethod("m"))

	var igets, iputs, sgets, sputs, agets, aputs int
	for _, u := range b.Units {
		as, ok := u.(*AssignStmt)
		if !ok {
			continue
		}
		switch as.LHS.(type) {
		case *InstanceFieldRef:
			iputs++
		case *StaticFieldRef:
			sputs++
		case *ArrayRef:
			aputs++
		}
		switch as.RHS.(type) {
		case *InstanceFieldRef:
			igets++
		case *StaticFieldRef:
			sgets++
		case *ArrayRef:
			agets++
		}
	}
	if igets != 1 || iputs != 1 || sgets != 1 || sputs != 1 || agets != 1 || aputs != 1 {
		t.Errorf("field/array ops: iget=%d iput=%d sget=%d sput=%d aget=%d aput=%d",
			igets, iputs, sgets, sputs, agets, aputs)
	}
}

func TestTranslateRendersJimpleStyle(t *testing.T) {
	cb := dex.NewClass("com.studiosol.util.NanoHTTPD").Field("myPort", dex.Int)
	mb := cb.Constructor(dex.Int)
	objInit := dex.NewMethodRef("java.lang.Object", "<init>", dex.Void)
	mb.InvokeDirect(objInit, mb.This()).
		IPut(mb.Param(0), mb.This(), dex.NewFieldRef("com.studiosol.util.NanoHTTPD", "myPort", dex.Int)).
		ReturnVoid().Done()
	b := mustTranslate(t, cb.Build().FindMethod("<init>", dex.Int))

	s := b.String()
	for _, frag := range []string{
		"r0 := @this: com.studiosol.util.NanoHTTPD",
		"specialinvoke r0.<java.lang.Object: void <init>()>()",
		"r0.<com.studiosol.util.NanoHTTPD: int myPort> = r1",
	} {
		if !strings.Contains(s, frag) {
			t.Errorf("body missing %q in:\n%s", frag, s)
		}
	}
}

func TestTranslateErrors(t *testing.T) {
	// Abstract method.
	iface := dex.NewInterface("com.a.I").AbstractMethod("x", dex.Void).Build()
	if _, err := Translate(iface.FindMethod("x")); err == nil {
		t.Error("abstract method must fail")
	}

	// Orphan move-result.
	m := &dex.Method{
		Ref:       dex.NewMethodRef("com.a.B", "bad", dex.Void),
		Flags:     dex.AccPublic | dex.AccStatic,
		Registers: 2,
		Code:      []dex.Instruction{{Op: dex.OpMoveResult, A: 0}, {Op: dex.OpReturnVoid}},
	}
	_, err := Translate(m)
	var te *TranslateError
	if !errors.As(err, &te) {
		t.Errorf("orphan move-result error = %v, want TranslateError", err)
	}

	// Register out of range.
	m2 := &dex.Method{
		Ref:       dex.NewMethodRef("com.a.B", "bad2", dex.Void),
		Flags:     dex.AccPublic | dex.AccStatic,
		Registers: 1,
		Code:      []dex.Instruction{{Op: dex.OpConst, A: 9, Lit: 1}, {Op: dex.OpReturnVoid}},
	}
	if _, err := Translate(m2); err == nil {
		t.Error("out-of-range register must fail")
	}

	// Arg/param count mismatch.
	callee := dex.NewMethodRef("com.a.B", "callee", dex.Void, dex.Int)
	m3 := &dex.Method{
		Ref:       dex.NewMethodRef("com.a.B", "bad3", dex.Void),
		Flags:     dex.AccPublic | dex.AccStatic,
		Registers: 1,
		Code: []dex.Instruction{
			{Op: dex.OpInvokeStatic, Method: &callee},
			{Op: dex.OpReturnVoid},
		},
	}
	if _, err := Translate(m3); err == nil {
		t.Error("arity mismatch must fail")
	}
}

func TestSuccessorsAndPredecessors(t *testing.T) {
	cb := dex.NewClass("com.a.B")
	mb := cb.StaticMethod("f", dex.Int, dex.Int)
	p := mb.Param(0)
	mb.IfZ(dex.OpIfEqz, p, "zero").
		Const(p, 1).
		Goto("end").
		Label("zero").
		Const(p, 0).
		Label("end").
		Return(p).
		Done()
	b := mustTranslate(t, cb.Build().FindMethod("f", dex.Int))
	// 0 id, 1 if, 2 const1, 3 goto, 4 const0, 5 return.
	succOf := func(i int) []int { return b.Successors(i) }
	if got := succOf(1); len(got) != 2 {
		t.Errorf("if successors = %v", got)
	}
	if got := succOf(3); len(got) != 1 || got[0] != 5 {
		t.Errorf("goto successors = %v", got)
	}
	if got := succOf(5); len(got) != 0 {
		t.Errorf("return successors = %v", got)
	}
	preds := b.Predecessors()
	if len(preds[5]) != 2 {
		t.Errorf("return predecessors = %v", preds[5])
	}
	if b.Successors(-1) != nil || b.Successors(99) != nil {
		t.Error("out-of-range successors must be nil")
	}
}

func TestProgramCache(t *testing.T) {
	f := dex.NewFile()
	cb := dex.NewClass("com.a.B")
	cb.Method("m", dex.Void).ReturnVoid().Done()
	if err := f.AddClass(cb.Build()); err != nil {
		t.Fatal(err)
	}
	p := NewProgram(f)
	ref := dex.NewMethodRef("com.a.B", "m", dex.Void)
	b1, err := p.Body(ref)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := p.Body(ref)
	if err != nil {
		t.Fatal(err)
	}
	if b1 != b2 {
		t.Error("Body must cache")
	}
	if p.TranslatedCount() != 1 {
		t.Errorf("TranslatedCount = %d", p.TranslatedCount())
	}
	if _, err := p.Body(dex.NewMethodRef("com.a.Missing", "m", dex.Void)); err == nil {
		t.Error("missing method must fail")
	}
	// Failure is cached but does not pollute bodies.
	if p.TranslatedCount() != 1 {
		t.Errorf("TranslatedCount after failure = %d", p.TranslatedCount())
	}
}

func TestLocalsOf(t *testing.T) {
	a := &Local{Reg: 0, In: true}
	b := &Local{Reg: 1}
	localsOf := func(v Value) []*Local {
		var out []*Local
		EachLocal(v, func(l *Local) { out = append(out, l) })
		return out
	}
	inv := &InvokeExpr{Kind: KindVirtual, Base: a, Method: dex.NewMethodRef("c.D", "m", dex.Void, dex.Int), Args: []Value{b}}
	got := localsOf(inv)
	if len(got) != 2 || got[0] != a || got[1] != b {
		t.Errorf("locals of invoke = %v", got)
	}
	bin := &BinopExpr{Op: "+", Left: a, Right: b}
	if got := localsOf(bin); len(got) != 2 {
		t.Errorf("locals of binop = %v", got)
	}
	if got := localsOf(IntConst{V: 3}); got != nil {
		t.Errorf("locals of const = %v", got)
	}
	arr := &ArrayRef{Base: a, Index: b}
	if got := localsOf(arr); len(got) != 2 {
		t.Errorf("locals of arrayref = %v", got)
	}
	if got := arr.String(); got != "r0[$r1]" {
		t.Errorf("arrayref renders as %q, want r0[$r1]", got)
	}
}

// TestTranslateRejectsOutOfRangeRegisters: the decoder refuses a register
// count past the u16 Dalvik stores, but a method built in memory can
// carry any count, so Translate keeps its own bound and refuses one that
// no locals table can hold or that is negative.
func TestTranslateRejectsOutOfRangeRegisters(t *testing.T) {
	for _, regs := range []int{1 << 40, 1 << 16, -1} {
		c := dex.NewClass("com.regs.C").StaticMethod("m", dex.Void).ReturnVoid().Done().Build()
		m := c.Methods[0]
		m.Registers = regs
		var te *TranslateError
		if _, err := Translate(m); !errors.As(err, &te) || !strings.Contains(te.Reason, "register count") {
			t.Errorf("Translate with %d registers: %v, want a register-count TranslateError", regs, err)
		}
	}
}
