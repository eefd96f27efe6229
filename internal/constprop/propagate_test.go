package constprop

import (
	"testing"
	"testing/quick"

	"backdroid/internal/dex"
	"backdroid/internal/ir"
	"backdroid/internal/simtime"
	"backdroid/internal/ssg"
)

var (
	sinkRef = dex.NewMethodRef("javax.crypto.Cipher", "getInstance",
		dex.T("javax.crypto.Cipher"), dex.StringT)
	hostM = dex.NewMethodRef("com.t.Host", "go", dex.Void)

	// methods numbers the methods of the hand-built graphs.
	methods = ir.NewProgram(dex.NewFile())
)

// buildLinearSSG records `r1 = "AES"; sink(r1)` in one method.
func buildLinearSSG() *ssg.Graph {
	g := ssg.New(sinkRef)
	r1 := &ir.Local{Reg: 1, Type: dex.StringT}
	def := &ir.AssignStmt{LHS: r1, RHS: ir.StringConst{V: "AES"}}
	call := &ir.AssignStmt{
		LHS: &ir.Local{Reg: 2},
		RHS: &ir.InvokeExpr{Kind: ir.KindStatic, Method: sinkRef, Args: []ir.Value{r1}},
	}
	g.AddUnit(methods.ID(hostM), hostM, 1, def)
	sinkU := g.AddUnit(methods.ID(hostM), hostM, 2, call)
	g.MarkSink(sinkU)
	return g
}

func runOn(t *testing.T, g *ssg.Graph) *Result {
	t.Helper()
	res, err := Run(g, simtime.NewMeter(), Options{SinkParamIndex: 0})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestLinearConstant(t *testing.T) {
	res := runOn(t, buildLinearSSG())
	if len(res.SinkValues) != 1 || res.SinkValues[0].String() != `"AES"` {
		t.Errorf("values = %v", res.SinkValues)
	}
}

func TestStaticTrackResolvesField(t *testing.T) {
	g := ssg.New(sinkRef)
	field := dex.NewFieldRef("com.t.Config", "MODE", dex.StringT)
	clinit := dex.NewMethodRef("com.t.Config", "<clinit>", dex.Void)

	// Static track: r0 = "DES"; Config.MODE = r0.
	r0 := &ir.Local{Reg: 0, Type: dex.StringT}
	g.AddStaticUnit(methods.ID(clinit), clinit, 0, &ir.AssignStmt{LHS: r0, RHS: ir.StringConst{V: "DES"}})
	g.AddStaticUnit(methods.ID(clinit), clinit, 1, &ir.AssignStmt{LHS: &ir.StaticFieldRef{Field: field}, RHS: r0})

	// Main track: m = Config.MODE; sink(m).
	m := &ir.Local{Reg: 1, Type: dex.StringT}
	g.AddUnit(methods.ID(hostM), hostM, 0, &ir.AssignStmt{LHS: m, RHS: &ir.StaticFieldRef{Field: field}})
	sinkU := g.AddUnit(methods.ID(hostM), hostM, 1, &ir.AssignStmt{
		LHS: &ir.Local{Reg: 2},
		RHS: &ir.InvokeExpr{Kind: ir.KindStatic, Method: sinkRef, Args: []ir.Value{m}},
	})
	g.MarkSink(sinkU)

	res := runOn(t, g)
	if len(res.SinkValues) != 1 || res.SinkValues[0].String() != `"DES"` {
		t.Errorf("values = %v", res.SinkValues)
	}
}

func TestFrameworkStaticFieldBecomesToken(t *testing.T) {
	g := ssg.New(sinkRef)
	allowAll := dex.NewFieldRef("org.apache.http.conn.ssl.SSLSocketFactory",
		"ALLOW_ALL_HOSTNAME_VERIFIER", dex.ObjectT)
	v := &ir.Local{Reg: 1}
	g.AddUnit(methods.ID(hostM), hostM, 0, &ir.AssignStmt{LHS: v, RHS: &ir.StaticFieldRef{Field: allowAll}})
	sinkU := g.AddUnit(methods.ID(hostM), hostM, 1, &ir.AssignStmt{
		LHS: &ir.Local{Reg: 2},
		RHS: &ir.InvokeExpr{Kind: ir.KindStatic, Method: sinkRef, Args: []ir.Value{v}},
	})
	g.MarkSink(sinkU)
	res := runOn(t, g)
	if len(res.SinkValues) != 1 {
		t.Fatalf("values = %v", res.SinkValues)
	}
	if _, ok := res.SinkValues[0].(Token); !ok {
		t.Errorf("value = %T, want Token", res.SinkValues[0])
	}
}

func TestObjPointsToFields(t *testing.T) {
	g := ssg.New(sinkRef)
	field := dex.NewFieldRef("com.t.Holder", "mode", dex.StringT)
	obj := &ir.Local{Reg: 0, Type: dex.T("com.t.Holder")}
	val := &ir.Local{Reg: 1, Type: dex.StringT}
	out := &ir.Local{Reg: 2, Type: dex.StringT}

	g.AddUnit(methods.ID(hostM), hostM, 0, &ir.AssignStmt{LHS: obj, RHS: &ir.NewExpr{Class: "com.t.Holder"}})
	g.AddUnit(methods.ID(hostM), hostM, 1, &ir.AssignStmt{LHS: val, RHS: ir.StringConst{V: "AES/ECB/X"}})
	g.AddUnit(methods.ID(hostM), hostM, 2, &ir.AssignStmt{LHS: &ir.InstanceFieldRef{Base: obj, Field: field}, RHS: val})
	g.AddUnit(methods.ID(hostM), hostM, 3, &ir.AssignStmt{LHS: out, RHS: &ir.InstanceFieldRef{Base: obj, Field: field}})
	sinkU := g.AddUnit(methods.ID(hostM), hostM, 4, &ir.AssignStmt{
		LHS: &ir.Local{Reg: 9},
		RHS: &ir.InvokeExpr{Kind: ir.KindStatic, Method: sinkRef, Args: []ir.Value{out}},
	})
	g.MarkSink(sinkU)

	res := runOn(t, g)
	if len(res.SinkValues) != 1 || res.SinkValues[0].String() != `"AES/ECB/X"` {
		t.Errorf("values = %v", res.SinkValues)
	}
}

func TestApplyBinopArithmetic(t *testing.T) {
	tests := []struct {
		op   string
		l, r Value
		want string
	}{
		{"+", Num{2}, Num{3}, "5"},
		{"-", Num{5}, Num{3}, "2"},
		{"*", Num{4}, Num{3}, "12"},
		{"/", Num{9}, Num{2}, "4"},
		{"%", Num{9}, Num{4}, "1"},
		{"&", Num{6}, Num{3}, "2"},
		{"|", Num{4}, Num{1}, "5"},
		{"^", Num{7}, Num{2}, "5"},
		{"+", Str{"AES/"}, Str{"ECB"}, `"AES/ECB"`},
		{"/", Num{1}, Num{0}, "unknown"},
		{"+", Num{1}, Str{"x"}, "unknown"},
	}
	for _, tt := range tests {
		got := ApplyBinop(tt.op, tt.l, tt.r)
		if got.String() != tt.want {
			t.Errorf("ApplyBinop(%q, %v, %v) = %v, want %v", tt.op, tt.l, tt.r, got, tt.want)
		}
	}
}

func TestFactSetSemantics(t *testing.T) {
	f := NewFact(Str{"a"}, Str{"a"}, Num{1})
	if f.Size() != 2 {
		t.Errorf("size = %d, want 2 (dedup)", f.Size())
	}
	g := NewFact(Null{})
	g.Merge(f)
	if g.Size() != 3 {
		t.Errorf("merged size = %d", g.Size())
	}
	if _, ok := f.Singleton(); ok {
		t.Error("two-value fact is not singleton")
	}
	s := NewFact(Str{"only"})
	if v, ok := s.Singleton(); !ok || v.String() != `"only"` {
		t.Error("singleton lookup failed")
	}
}

func TestFactCapDegradesToUnknown(t *testing.T) {
	f := NewFact()
	for i := 0; i < FactCap+10; i++ {
		f.Add(Num{N: int64(i)})
	}
	if f.Size() != FactCap+1 {
		t.Errorf("size = %d, want cap+unknown = %d", f.Size(), FactCap+1)
	}
	if !f.HasUnknown() {
		t.Error("saturated fact must contain Unknown")
	}
}

// TestFactMergeRespectsCap pins that Merge saturates like Add: two
// full, disjoint sets merge into FactCap values plus Unknown, not their
// whole union.
func TestFactMergeRespectsCap(t *testing.T) {
	x, y := NewFact(), NewFact()
	for i := 0; i < FactCap; i++ {
		x.Add(Num{N: int64(i)})
		y.Add(Num{N: int64(FactCap + i)})
	}
	x.Merge(y)
	if x.Size() != FactCap+1 || !x.HasUnknown() {
		t.Fatalf("merged size = %d (unknown %v), want %d with unknown", x.Size(), x.HasUnknown(), FactCap+1)
	}
}

func TestFactMergeCommutativeProperty(t *testing.T) {
	mk := func(vals []int16) *Fact {
		f := NewFact()
		for _, v := range vals {
			f.Add(Num{N: int64(v)})
		}
		return f
	}
	prop := func(a, b []int16) bool {
		if len(a) > 20 {
			a = a[:20]
		}
		if len(b) > 20 {
			b = b[:20]
		}
		x := mk(a)
		x.Merge(mk(b))
		y := mk(b)
		y.Merge(mk(a))
		if x.Size() != y.Size() {
			return false
		}
		xs, ys := x.Strings(), y.Strings()
		for i := range xs {
			if xs[i] != ys[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestStringBuilderModel(t *testing.T) {
	g := ssg.New(sinkRef)
	sb := &ir.Local{Reg: 0, Type: dex.T("java.lang.StringBuilder")}
	part := &ir.Local{Reg: 1, Type: dex.StringT}
	out := &ir.Local{Reg: 2, Type: dex.StringT}
	appendRef := dex.NewMethodRef("java.lang.StringBuilder", "append",
		dex.T("java.lang.StringBuilder"), dex.StringT)
	toStringRef := dex.NewMethodRef("java.lang.StringBuilder", "toString", dex.StringT)

	g.AddUnit(methods.ID(hostM), hostM, 0, &ir.AssignStmt{LHS: sb, RHS: &ir.NewExpr{Class: "java.lang.StringBuilder"}})
	g.AddUnit(methods.ID(hostM), hostM, 1, &ir.AssignStmt{LHS: part, RHS: ir.StringConst{V: "AES/"}})
	g.AddUnit(methods.ID(hostM), hostM, 2, &ir.InvokeStmt{Invoke: &ir.InvokeExpr{
		Kind: ir.KindVirtual, Base: sb, Method: appendRef, Args: []ir.Value{part}}})
	g.AddUnit(methods.ID(hostM), hostM, 3, &ir.AssignStmt{LHS: part, RHS: ir.StringConst{V: "ECB/PKCS5Padding"}})
	g.AddUnit(methods.ID(hostM), hostM, 4, &ir.InvokeStmt{Invoke: &ir.InvokeExpr{
		Kind: ir.KindVirtual, Base: sb, Method: appendRef, Args: []ir.Value{part}}})
	g.AddUnit(methods.ID(hostM), hostM, 5, &ir.AssignStmt{LHS: out, RHS: &ir.InvokeExpr{
		Kind: ir.KindVirtual, Base: sb, Method: toStringRef}})
	sinkU := g.AddUnit(methods.ID(hostM), hostM, 6, &ir.AssignStmt{
		LHS: &ir.Local{Reg: 9},
		RHS: &ir.InvokeExpr{Kind: ir.KindStatic, Method: sinkRef, Args: []ir.Value{out}},
	})
	g.MarkSink(sinkU)

	res := runOn(t, g)
	if len(res.SinkValues) != 1 || res.SinkValues[0].String() != `"AES/ECB/PKCS5Padding"` {
		t.Errorf("values = %v, want concatenated transformation", res.SinkValues)
	}
}

func TestTimeoutPropagates(t *testing.T) {
	meter := simtime.NewMeter()
	meter.SetBudget(1)
	g := buildLinearSSG()
	if _, err := Run(g, meter, Options{}); err == nil {
		t.Error("over-budget propagation must fail")
	}
}

// TestCanceledMeterAbortsForwardPass pins the cancellation hook in the
// forward pass: a latched meter aborts Run with simtime.ErrCanceled at
// method granularity.
func TestCanceledMeterAbortsForwardPass(t *testing.T) {
	meter := simtime.NewMeter()
	meter.SetCheckpoint(func(int64, int64) bool { return true })
	for meter.Charge(1) == nil {
	}
	_, err := Run(buildLinearSSG(), meter, Options{SinkParamIndex: 0})
	if err != simtime.ErrCanceled {
		t.Fatalf("Run on a canceled meter = %v, want ErrCanceled", err)
	}
}
