package constprop

import (
	"sort"

	"backdroid/internal/android"
	"backdroid/internal/dex"
	"backdroid/internal/ir"
	"backdroid/internal/simtime"
	"backdroid/internal/ssg"
)

// Options configures a propagation run.
type Options struct {
	// SinkParamIndex selects which declared parameter of the sink call to
	// report.
	SinkParamIndex int
	// MaxDepth bounds inter-procedural descents.
	MaxDepth int
	// OnMethod, when non-nil, sees every method the traversal evaluates
	// (normal and static track). The delta engine records the per-sink
	// class footprint through it. The forward pass only ever reads units
	// recorded in the SSG, so this is redundant with the slicer's own
	// recording — kept as an explicit seam so the footprint's
	// completeness does not rest on that invariant.
	OnMethod func(dex.MethodRef)
}

// Result is the outcome of a propagation run.
type Result struct {
	// SinkValues is the dataflow representation of the tracked sink
	// parameter: every abstract value that can reach it.
	SinkValues []Value
}

// Run traverses the SSG: the special static-field track first, then the
// normal track from its tail methods, analyzing each recorded statement's
// semantics and propagating constant and points-to facts until the sink
// node is reached (paper Sec. V-B).
func Run(g *ssg.Graph, meter *simtime.Meter, opts Options) (*Result, error) {
	if opts.MaxDepth <= 0 {
		opts.MaxDepth = 25
	}
	a := &analysis{
		g:        g,
		meter:    meter,
		opts:     opts,
		globals:  make(map[dex.FieldRef]*Fact),
		sink:     NewFact(),
		thisObjs: make(map[string]*Obj),
	}

	// Static field track first, so the normal track can resolve the
	// fields it references.
	if err := a.runStaticTrack(); err != nil {
		return nil, err
	}

	for _, root := range a.rootMethods() {
		if _, err := a.evalMethod(root, newEnv(0), nil); err != nil {
			return nil, err
		}
	}
	return &Result{SinkValues: a.sink.Values()}, nil
}

// env is one method evaluation's facts. locals[r] is the fact of
// register r, nil where none was bound; it grows to the highest register
// the evaluation binds, not to the body's register count. thisFact and
// params seed the identity statements: params[i] is the fact of
// parameter i, nil where the caller bound none.
type env struct {
	locals   []*Fact
	thisFact *Fact
	params   []*Fact
}

// newEnv returns an empty environment for a method with params
// parameters.
func newEnv(params int) *env { return &env{params: make([]*Fact, params)} }

// set binds register r to fact.
func (e *env) set(r int, fact *Fact) {
	if r >= len(e.locals) {
		e.locals = append(e.locals, make([]*Fact, r+1-len(e.locals))...)
	}
	e.locals[r] = fact
}

// local returns the fact bound to register r, or nil.
func (e *env) local(r int) *Fact {
	if r < len(e.locals) {
		return e.locals[r]
	}
	return nil
}

// param returns the fact the caller bound to parameter i, or nil.
func (e *env) param(i int) *Fact {
	if i < len(e.params) {
		return e.params[i]
	}
	return nil
}

type analysis struct {
	g       *ssg.Graph
	meter   *simtime.Meter
	opts    Options
	globals map[dex.FieldRef]*Fact // static field -> fact
	sink    *Fact
	objSeq  int
	// thisObjs gives every method of one class the same receiver object,
	// so component state written in one lifecycle handler is visible in
	// another (paper Sec. IV-E).
	thisObjs map[string]*Obj
}

// rootMethods returns tracked methods that are not callees of any recorded
// call edge — the tails the overall traversal starts from (entry-side
// methods).
func (a *analysis) rootMethods() []ir.MethodID {
	callees := make(map[ir.MethodID]bool)
	for _, e := range a.g.Edges() {
		if e.Kind == ssg.CallEdge {
			callees[e.Callee] = true
		}
	}
	// A method whose every unit is on the static track is evaluated
	// there only.
	inTrack := make(map[ir.MethodID]int)
	for _, u := range a.g.StaticTrack {
		inTrack[u.MethodID]++
	}
	var out []ir.MethodID
	for _, id := range a.g.Methods() {
		if !callees[id] && inTrack[id] != len(a.g.UnitsOf(id)) {
			out = append(out, id)
		}
	}
	// Lifecycle handlers of one component execute in lifecycle order;
	// evaluating them in that order lets later handlers observe state
	// written by earlier ones (e.g. onCreate before onResume).
	sort.SliceStable(out, func(i, j int) bool {
		ri, rj := a.g.Ref(out[i]), a.g.Ref(out[j])
		if ri.Class != rj.Class {
			return ri.Class < rj.Class
		}
		return lifecycleRank(ri.Name) < lifecycleRank(rj.Name)
	})
	return out
}

// lifecycleRank orders lifecycle handler names across all component kinds;
// non-lifecycle methods sort last by name.
func lifecycleRank(name string) int {
	order := []string{
		"<clinit>", "<init>", "onCreate", "onStart", "onRestart",
		"onStartCommand", "onBind", "onHandleIntent", "onReceive",
		"onResume", "onPause", "onStop", "onDestroy",
	}
	for i, n := range order {
		if n == name {
			return i
		}
	}
	return len(order)
}

// runStaticTrack evaluates the off-path <clinit> units, populating the
// global static-field fact map, one method at a time in the order the
// track first reaches each.
func (a *analysis) runStaticTrack() error {
	seen := make(map[ir.MethodID]bool)
	for _, u := range a.g.StaticTrack {
		if seen[u.MethodID] {
			continue
		}
		seen[u.MethodID] = true
		if a.opts.OnMethod != nil {
			a.opts.OnMethod(a.g.Ref(u.MethodID))
		}
		if _, err := a.evalUnits(a.g.UnitsOf(u.MethodID), newEnv(0), nil); err != nil {
			return err
		}
	}
	return nil
}

// evalMethod evaluates the recorded units of a method under the given
// environment, returning the fact of its recorded return values (if any).
// stack holds the methods being evaluated above this one.
func (a *analysis) evalMethod(id ir.MethodID, env *env, stack []ir.MethodID) (*Fact, error) {
	// Cooperative cancellation: a latched cancel aborts the forward pass
	// at method granularity, even on paths (empty unit lists) that charge
	// too little to reach the meter's next checkpoint soon.
	if a.meter.Canceled() {
		return nil, simtime.ErrCanceled
	}
	if a.opts.OnMethod != nil {
		a.opts.OnMethod(a.g.Ref(id))
	}
	if len(stack) > a.opts.MaxDepth {
		return NewFact(Unknown{}), nil
	}
	for _, s := range stack {
		if s == id {
			return NewFact(Unknown{}), nil // recursive SSG edge: cut
		}
	}
	return a.evalUnits(a.g.UnitsOf(id), env, append(stack, id))
}

func (a *analysis) evalUnits(units []*ssg.Unit, env *env, stack []ir.MethodID) (*Fact, error) {
	ret := NewFact()
	for _, u := range units {
		if err := a.meter.Charge(1); err != nil {
			return nil, err
		}
		switch s := u.Stmt.(type) {
		case *ir.IdentityStmt:
			switch rhs := s.RHS.(type) {
			case *ir.ThisRef:
				if env.thisFact != nil {
					env.set(s.LHS.Reg, env.thisFact)
				} else {
					env.set(s.LHS.Reg, NewFact(a.classThis(rhs.Class)))
				}
			case *ir.ParamRef:
				if f := env.param(rhs.Index); f != nil {
					env.set(s.LHS.Reg, f)
				} else {
					env.set(s.LHS.Reg, NewFact(Unknown{}))
				}
			}

		case *ir.AssignStmt:
			if err := a.evalAssign(u, s, env, stack); err != nil {
				return nil, err
			}

		case *ir.InvokeStmt:
			if _, err := a.evalInvoke(u, s.Invoke, env, stack); err != nil {
				return nil, err
			}

		case *ir.ReturnStmt:
			if s.Val != nil {
				ret.Merge(a.evalValue(s.Val, env))
			}
		}
	}
	if ret.Empty() {
		ret.Add(Unknown{})
	}
	return ret, nil
}

func (a *analysis) evalAssign(u *ssg.Unit, s *ir.AssignStmt, env *env, stack []ir.MethodID) error {
	var fact *Fact
	if inv, ok := s.RHS.(*ir.InvokeExpr); ok {
		f, err := a.evalInvoke(u, inv, env, stack)
		if err != nil {
			return err
		}
		fact = f
	} else {
		fact = a.evalValue(s.RHS, env)
	}

	switch lhs := s.LHS.(type) {
	case *ir.Local:
		env.set(lhs.Reg, fact)
	case *ir.InstanceFieldRef:
		base := a.evalValue(lhs.Base, env)
		for _, v := range base.Values() {
			if obj, ok := v.(*Obj); ok {
				obj.Fields[lhs.Field] = fact
			}
		}
	case *ir.StaticFieldRef:
		if existing, ok := a.globals[lhs.Field]; ok {
			existing.Merge(fact)
		} else {
			a.globals[lhs.Field] = fact
		}
	case *ir.ArrayRef:
		base := a.evalValue(lhs.Base, env)
		idxFact := a.evalValue(lhs.Index, env)
		for _, v := range base.Values() {
			arr, ok := v.(*Arr)
			if !ok {
				continue
			}
			if n, ok2 := singleNum(idxFact); ok2 {
				arr.Elems[n] = fact
			} else {
				arr.Elems[-1] = fact // unknown index: wildcard slot
			}
		}
	}
	return nil
}

// evalInvoke resolves a call node: descend through recorded call edges
// into tracked callees; model framework APIs otherwise. At the sink node
// the tracked parameter's fact is collected.
func (a *analysis) evalInvoke(u *ssg.Unit, inv *ir.InvokeExpr, env *env, stack []ir.MethodID) (*Fact, error) {
	if u == a.g.SinkSite && a.opts.SinkParamIndex < len(inv.Args) {
		a.sink.Merge(a.evalValue(inv.Args[a.opts.SinkParamIndex], env))
	}

	for _, callee := range a.g.CallEdgesFrom(u) {
		calleeEnv := newEnv(len(inv.Args))
		if inv.Base != nil {
			calleeEnv.thisFact = a.evalValue(inv.Base, env)
		}
		for i, arg := range inv.Args {
			calleeEnv.params[i] = a.evalValue(arg, env)
		}
		retFact, err := a.evalMethod(callee, calleeEnv, stack)
		if err != nil {
			return nil, err
		}
		if a.g.Ref(callee).Equal(inv.Method) {
			return retFact, nil
		}
	}
	return a.modelAPI(inv, env), nil
}

// evalValue computes the fact of a non-invoke value.
func (a *analysis) evalValue(v ir.Value, env *env) *Fact {
	switch t := v.(type) {
	case *ir.Local:
		if f := env.local(t.Reg); f != nil {
			return f
		}
		return NewFact(Unknown{})
	case ir.StringConst:
		return NewFact(Str{S: t.V})
	case ir.IntConst:
		return NewFact(Num{N: t.V})
	case ir.NullConst:
		return NewFact(Null{})
	case ir.ClassConst:
		return NewFact(Token{Sig: "class " + t.Class})
	case *ir.InstanceFieldRef:
		base := a.evalValue(t.Base, env)
		out := NewFact()
		for _, bv := range base.Values() {
			if obj, ok := bv.(*Obj); ok {
				if f, ok2 := obj.Fields[t.Field]; ok2 {
					out.Merge(f)
				}
			}
		}
		if out.Empty() {
			out.Add(Unknown{})
		}
		return out
	case *ir.StaticFieldRef:
		if android.IsSystemClass(t.Field.Class) {
			return NewFact(Token{Sig: t.Field.SootSignature()})
		}
		if f, ok := a.globals[t.Field]; ok {
			return f
		}
		return NewFact(Unknown{})
	case *ir.ArrayRef:
		base := a.evalValue(t.Base, env)
		idx := a.evalValue(t.Index, env)
		out := NewFact()
		for _, bv := range base.Values() {
			arr, ok := bv.(*Arr)
			if !ok {
				continue
			}
			if n, ok2 := singleNum(idx); ok2 {
				if f, ok3 := arr.Elems[n]; ok3 {
					out.Merge(f)
					continue
				}
			}
			for _, f := range arr.Elems {
				out.Merge(f)
			}
		}
		if out.Empty() {
			out.Add(Unknown{})
		}
		return out
	case *ir.BinopExpr:
		return a.evalBinop(t, env)
	case *ir.CastExpr:
		return a.evalValue(t.Val, env)
	case *ir.NewExpr:
		return NewFact(a.freshObj(t.Class))
	case *ir.NewArrayExpr:
		a.objSeq++
		return NewFact(&Arr{ID: a.objSeq, Elems: make(map[int64]*Fact)})
	}
	return NewFact(Unknown{})
}

// evalBinop mimics arithmetic on constant operands (paper: "we mimic
// arithmetic operations ... to handle BinopExpr").
func (a *analysis) evalBinop(b *ir.BinopExpr, env *env) *Fact {
	left := a.evalValue(b.Left, env)
	right := a.evalValue(b.Right, env)
	out := NewFact()
	for _, lv := range left.Values() {
		for _, rv := range right.Values() {
			out.Add(applyBinop(b.Op, lv, rv))
		}
	}
	return out
}

// ApplyBinop computes a binary operation on two abstract values, yielding
// Unknown when the operands are not constants. Exported because the
// whole-app baseline evaluates the same value algebra.
func ApplyBinop(op string, lv, rv Value) Value { return applyBinop(op, lv, rv) }

func applyBinop(op string, lv, rv Value) Value {
	ln, lok := lv.(Num)
	rn, rok := rv.(Num)
	if lok && rok {
		switch op {
		case "+":
			return Num{N: ln.N + rn.N}
		case "-":
			return Num{N: ln.N - rn.N}
		case "*":
			return Num{N: ln.N * rn.N}
		case "/":
			if rn.N != 0 {
				return Num{N: ln.N / rn.N}
			}
		case "%":
			if rn.N != 0 {
				return Num{N: ln.N % rn.N}
			}
		case "&":
			return Num{N: ln.N & rn.N}
		case "|":
			return Num{N: ln.N | rn.N}
		case "^":
			return Num{N: ln.N ^ rn.N}
		}
	}
	ls, lsok := lv.(Str)
	rs, rsok := rv.(Str)
	if op == "+" && lsok && rsok {
		return concat(ls.S, rs.S)
	}
	return Unknown{}
}

func (a *analysis) freshObj(class string) *Obj {
	a.objSeq++
	return &Obj{ID: a.objSeq, Class: class, Fields: make(map[dex.FieldRef]*Fact)}
}

// classThis returns the canonical receiver object of a class, shared by
// all tracked methods without explicit caller bindings.
func (a *analysis) classThis(class string) *Obj {
	if o, ok := a.thisObjs[class]; ok {
		return o
	}
	o := a.freshObj(class)
	a.thisObjs[class] = o
	return o
}

func singleNum(f *Fact) (int64, bool) {
	v, ok := f.Singleton()
	if !ok {
		return 0, false
	}
	n, ok := v.(Num)
	return n.N, ok
}
