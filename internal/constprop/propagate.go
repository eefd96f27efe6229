package constprop

import (
	"fmt"
	"sort"
	"strings"

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
	// SinkUnit overrides the graph's SinkSite as the node whose argument
	// fact is collected. Per-app SSGs record several sink calls in one
	// graph; each propagation run targets one of them.
	SinkUnit *ssg.Unit
	// MultiSinks, when non-nil, collects facts for several sink call
	// nodes in a single traversal: each entry maps a recorded call node
	// to the parameter index to track at it. The per-app SSG mode uses
	// this to run the forward pass once per app instead of once per sink
	// — the traversal itself is identical to a single-sink run, only the
	// collection points differ. SinkUnit/SinkParamIndex are ignored.
	MultiSinks map[*ssg.Unit]int
	// Memoize caches evalMethod results keyed by (callee signature,
	// argument facts), so a callee shared by many call edges — the deep
	// config chains of many-sink apps — is evaluated once per distinct
	// fact environment instead of once per edge. Only provably
	// effect-free evaluations are cached (no sink collection, no
	// static-field or object-field writes, no fresh allocations, no
	// depth/recursion cutoffs), and entries are invalidated by any later
	// global or field write, so results are identical with the cache on
	// or off.
	Memoize bool
	// OnMethod, when non-nil, sees every method the traversal evaluates
	// (normal and static track, memo hits included). The delta engine
	// records the per-sink class footprint through it. The forward pass
	// only ever reads units recorded in the SSG, so this is redundant
	// with the slicer's own recording — kept as an explicit seam so the
	// footprint's completeness does not rest on that invariant.
	OnMethod func(dex.MethodRef)
}

// Result is the outcome of a propagation run.
type Result struct {
	// SinkValues is the dataflow representation of the tracked sink
	// parameter: every abstract value that can reach it.
	SinkValues []Value
	// MultiValues holds the per-node values of a MultiSinks run.
	MultiValues map[*ssg.Unit][]Value
	// MemoHits counts evalMethod calls answered from the Memoize cache.
	MemoHits int64
}

// Run traverses the SSG: the special static-field track first, then the
// normal track from its tail methods, analyzing each recorded statement's
// semantics and propagating constant and points-to facts until the sink
// node is reached (paper Sec. V-B).
func Run(g *ssg.Graph, prog *ir.Program, meter *simtime.Meter, opts Options) (*Result, error) {
	if opts.MaxDepth <= 0 {
		opts.MaxDepth = 25
	}
	a := &analysis{
		g:        g,
		prog:     prog,
		meter:    meter,
		opts:     opts,
		globals:  make(map[string]*Fact),
		sink:     NewFact(),
		thisObjs: make(map[string]*Obj),
	}
	if opts.Memoize {
		a.memo = make(map[string]memoEntry)
	}
	if opts.MultiSinks != nil {
		a.multi = make(map[*ssg.Unit]*Fact, len(opts.MultiSinks))
		for u := range opts.MultiSinks {
			a.multi[u] = NewFact()
		}
	}

	// Static field track first, so the normal track can resolve the
	// fields it references.
	if err := a.runStaticTrack(); err != nil {
		return nil, err
	}

	for _, root := range a.rootMethods() {
		env := newEnv()
		if _, err := a.evalMethod(root, env, nil); err != nil {
			return nil, err
		}
	}
	res := &Result{SinkValues: a.sink.Values(), MemoHits: a.memoHits}
	if a.multi != nil {
		res.MultiValues = make(map[*ssg.Unit][]Value, len(a.multi))
		for u, f := range a.multi {
			res.MultiValues[u] = f.Values()
		}
	}
	return res, nil
}

type env struct {
	locals map[string]*Fact
	// thisFact / params seed identity statements.
	thisFact *Fact
	params   map[int]*Fact
}

func newEnv() *env {
	return &env{locals: make(map[string]*Fact), params: make(map[int]*Fact)}
}

type analysis struct {
	g       *ssg.Graph
	prog    *ir.Program
	meter   *simtime.Meter
	opts    Options
	globals map[string]*Fact // static field soot sig -> fact
	sink    *Fact
	multi   map[*ssg.Unit]*Fact // per-node facts of a MultiSinks run
	objSeq  int
	// thisObjs gives every method of one class the same receiver object,
	// so component state written in one lifecycle handler is visible in
	// another (paper Sec. IV-E).
	thisObjs map[string]*Obj

	// Forward-pass memoization (Options.Memoize). The effect counters
	// make caching sound: globalsSeq bumps on every static-field write,
	// fieldSeq on every object-field or array-element write, sinkSeq on
	// every sink-fact collection and cutSeq on every depth-bound or
	// recursion cutoff. An evaluation is cached only when none of them
	// (nor objSeq — fresh allocations carry identity) moved while it ran,
	// and a cached entry is served only while the global and field
	// counters still match the values it was recorded under, so no stale
	// state can ever be replayed.
	memo       map[string]memoEntry
	memoHits   int64
	globalsSeq int64
	fieldSeq   int64
	sinkSeq    int64
	cutSeq     int64
}

// memoEntry is one cached evalMethod result together with the validity
// snapshot it was recorded under. remaining is the depth budget the
// evaluation had left; a reuse site must have at least as much, or the
// original evaluation could have been cut where the reuse would not be.
type memoEntry struct {
	ret        *Fact
	globalsSeq int64
	fieldSeq   int64
	remaining  int
}

// envKey renders the argument facts of a call deterministically: the
// receiver fact plus every positional parameter fact, each as its sorted
// value strings. Object values render with their allocation identity, so
// two keys are equal only when the callee would see literally the same
// abstract inputs.
func envKey(env *env) string {
	var b strings.Builder
	if env.thisFact != nil {
		b.WriteString(strings.Join(env.thisFact.Strings(), ","))
	}
	b.WriteByte(';')
	idxs := make([]int, 0, len(env.params))
	for i := range env.params {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	for _, i := range idxs {
		fmt.Fprintf(&b, "%d=[%s];", i, strings.Join(env.params[i].Strings(), ","))
	}
	return b.String()
}

// rootMethods returns tracked methods that are not callees of any recorded
// call edge — the tails the overall traversal starts from (entry-side
// methods).
func (a *analysis) rootMethods() []dex.MethodRef {
	callees := make(map[string]bool)
	for _, e := range a.g.Edges() {
		if e.Kind == ssg.CallEdge {
			callees[e.Callee.SootSignature()] = true
		}
	}
	var out []dex.MethodRef
	for _, sig := range a.g.Methods() {
		if callees[sig] {
			continue
		}
		ref, err := dex.ParseSootMethodSignature(sig)
		if err != nil {
			continue
		}
		if a.isStaticTrackOnly(ref) {
			continue
		}
		out = append(out, ref)
	}
	// Lifecycle handlers of one component execute in lifecycle order;
	// evaluating them in that order lets later handlers observe state
	// written by earlier ones (e.g. onCreate before onResume).
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Class != out[j].Class {
			return out[i].Class < out[j].Class
		}
		return lifecycleRank(out[i].Name) < lifecycleRank(out[j].Name)
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

func (a *analysis) isStaticTrackOnly(ref dex.MethodRef) bool {
	units := a.g.UnitsOf(ref)
	if len(units) == 0 {
		return false
	}
	inTrack := make(map[*ssg.Unit]bool, len(a.g.StaticTrack))
	for _, u := range a.g.StaticTrack {
		inTrack[u] = true
	}
	for _, u := range units {
		if !inTrack[u] {
			return false
		}
	}
	return true
}

// runStaticTrack evaluates the off-path <clinit> units, populating the
// global static-field fact map.
func (a *analysis) runStaticTrack() error {
	byMethod := make(map[string][]*ssg.Unit)
	var order []string
	for _, u := range a.g.StaticTrack {
		sig := u.Method.SootSignature()
		if _, ok := byMethod[sig]; !ok {
			order = append(order, sig)
		}
		byMethod[sig] = append(byMethod[sig], u)
	}
	for _, sig := range order {
		ref, err := dex.ParseSootMethodSignature(sig)
		if err != nil {
			continue
		}
		if a.opts.OnMethod != nil {
			a.opts.OnMethod(ref)
		}
		env := newEnv()
		if _, err := a.evalUnits(ref, a.g.UnitsOf(ref), env, nil, 0); err != nil {
			return err
		}
	}
	return nil
}

// evalMethod evaluates the recorded units of a method under the given
// environment, returning the fact of its recorded return values (if any).
// With Options.Memoize set, effect-free evaluations are cached per
// (callee, argument facts) and replayed for later call edges with the
// same abstract inputs — the shared-callee fast path of deep chains.
func (a *analysis) evalMethod(ref dex.MethodRef, env *env, stack []string) (*Fact, error) {
	// Cooperative cancellation: a latched cancel aborts the forward pass
	// at method granularity, even on paths (memo hits, empty unit lists)
	// that charge too little to reach the meter's next checkpoint soon.
	if a.meter.Canceled() {
		return nil, simtime.ErrCanceled
	}
	if a.opts.OnMethod != nil {
		a.opts.OnMethod(ref)
	}
	sig := ref.SootSignature()
	if len(stack) > a.opts.MaxDepth {
		a.cutSeq++
		return NewFact(Unknown{}), nil
	}
	for _, s := range stack {
		if s == sig {
			a.cutSeq++
			return NewFact(Unknown{}), nil // recursive SSG edge: cut
		}
	}
	remaining := a.opts.MaxDepth - len(stack)
	var key string
	if a.memo != nil {
		key = sig + "\x00" + envKey(env)
		if ent, ok := a.memo[key]; ok &&
			ent.globalsSeq == a.globalsSeq && ent.fieldSeq == a.fieldSeq &&
			ent.remaining <= remaining {
			a.memoHits++
			if err := a.meter.Charge(1); err != nil {
				return nil, err
			}
			return ent.ret, nil
		}
	}
	g0, f0, s0, c0, o0 := a.globalsSeq, a.fieldSeq, a.sinkSeq, a.cutSeq, a.objSeq
	ret, err := a.evalUnits(ref, a.g.UnitsOf(ref), env, append(stack, sig), 0)
	if err != nil {
		return nil, err
	}
	if a.memo != nil &&
		g0 == a.globalsSeq && f0 == a.fieldSeq && s0 == a.sinkSeq &&
		c0 == a.cutSeq && o0 == a.objSeq {
		a.memo[key] = memoEntry{ret: ret, globalsSeq: a.globalsSeq, fieldSeq: a.fieldSeq, remaining: remaining}
	}
	return ret, nil
}

func (a *analysis) evalUnits(ref dex.MethodRef, units []*ssg.Unit, env *env, stack []string, _ int) (*Fact, error) {
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
					env.locals[s.LHS.Name] = env.thisFact
				} else {
					env.locals[s.LHS.Name] = NewFact(a.classThis(rhs.Class))
				}
			case *ir.ParamRef:
				if f, ok := env.params[rhs.Index]; ok {
					env.locals[s.LHS.Name] = f
				} else {
					env.locals[s.LHS.Name] = NewFact(Unknown{})
				}
			}

		case *ir.AssignStmt:
			if err := a.evalAssign(ref, u, s, env, stack); err != nil {
				return nil, err
			}

		case *ir.InvokeStmt:
			if _, err := a.evalInvoke(ref, u, s.Invoke, env, stack); err != nil {
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

func (a *analysis) evalAssign(ref dex.MethodRef, u *ssg.Unit, s *ir.AssignStmt, env *env, stack []string) error {
	var fact *Fact
	if inv, ok := s.RHS.(*ir.InvokeExpr); ok {
		f, err := a.evalInvoke(ref, u, inv, env, stack)
		if err != nil {
			return err
		}
		fact = f
	} else {
		fact = a.evalValue(s.RHS, env)
	}

	switch lhs := s.LHS.(type) {
	case *ir.Local:
		env.locals[lhs.Name] = fact
	case *ir.InstanceFieldRef:
		a.fieldSeq++
		base := a.evalValue(lhs.Base, env)
		for _, v := range base.Values() {
			if obj, ok := v.(*Obj); ok {
				obj.Fields[lhs.Field.SootSignature()] = fact
			}
		}
	case *ir.StaticFieldRef:
		a.globalsSeq++
		sig := lhs.Field.SootSignature()
		if existing, ok := a.globals[sig]; ok {
			existing.Merge(fact)
		} else {
			a.globals[sig] = fact
		}
	case *ir.ArrayRef:
		a.fieldSeq++
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
func (a *analysis) evalInvoke(ref dex.MethodRef, u *ssg.Unit, inv *ir.InvokeExpr, env *env, stack []string) (*Fact, error) {
	if a.multi != nil {
		if pi, ok := a.opts.MultiSinks[u]; ok && pi < len(inv.Args) {
			a.sinkSeq++
			a.multi[u].Merge(a.evalValue(inv.Args[pi], env))
		}
	} else {
		target := a.opts.SinkUnit
		if target == nil {
			target = a.g.SinkSite
		}
		if target == u {
			if a.opts.SinkParamIndex < len(inv.Args) {
				a.sinkSeq++
				a.sink.Merge(a.evalValue(inv.Args[a.opts.SinkParamIndex], env))
			}
		}
	}

	for _, callee := range a.g.CallEdgesFrom(u) {
		calleeEnv := newEnv()
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
		if callee.SootSignature() == inv.Method.SootSignature() {
			return retFact, nil
		}
	}
	return a.modelAPI(inv, env), nil
}

// evalValue computes the fact of a non-invoke value.
func (a *analysis) evalValue(v ir.Value, env *env) *Fact {
	switch t := v.(type) {
	case *ir.Local:
		if f, ok := env.locals[t.Name]; ok {
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
				if f, ok2 := obj.Fields[t.Field.SootSignature()]; ok2 {
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
		if f, ok := a.globals[t.Field.SootSignature()]; ok {
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
		return Str{S: ls.S + rs.S}
	}
	return Unknown{}
}

func (a *analysis) freshObj(class string) *Obj {
	a.objSeq++
	return &Obj{ID: a.objSeq, Class: class, Fields: make(map[string]*Fact)}
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
