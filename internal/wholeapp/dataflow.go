package wholeapp

import (
	"sort"
	"strconv"

	"backdroid/internal/android"
	"backdroid/internal/constprop"
	"backdroid/internal/dex"
	"backdroid/internal/ir"
	"backdroid/internal/vuln"
)

// methodState is the dataflow summary of one reachable method.
type methodState struct {
	in      map[int]*constprop.Fact // parameter index -> incoming facts
	ret     *constprop.Fact
	changed bool
}

// dataflow runs the whole-app inter-procedural constant propagation: a
// summary-based fixpoint over every reachable method. Each pass re-scans
// all reachable bodies; passes repeat until summaries stabilize or
// MaxPasses is hit. This is where whole-app analysis burns its time on
// large apps — exactly the paper's scalability complaint.
func (a *Analyzer) dataflow() ([]*Finding, error) {
	states := make(map[string]*methodState, len(a.nodes))
	globals := make(map[string]*constprop.Fact)
	findings := make(map[string]*Finding)

	sigs := make([]string, 0, len(a.nodes))
	for sig := range a.nodes {
		sigs = append(sigs, sig)
	}
	sort.Strings(sigs)
	for _, sig := range sigs {
		states[sig] = &methodState{in: make(map[int]*constprop.Fact), ret: constprop.NewFact()}
	}

	for pass := 0; pass < a.opts.MaxPasses; pass++ {
		a.stats.FixpointPasses = pass + 1
		changed := false
		for _, sig := range sigs {
			m := a.nodes[sig]
			body, err := a.prog.Body(m)
			if err != nil {
				return nil, err
			}
			a.stats.MethodsVisited++
			if err := a.evalBody(m, body, states, globals, findings); err != nil {
				return nil, err
			}
			if states[sig].changed {
				states[sig].changed = false
				changed = true
			}
		}
		if !changed {
			break
		}
	}

	out := make([]*Finding, 0, len(findings))
	keys := make([]string, 0, len(findings))
	for k := range findings {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		out = append(out, findings[k])
	}
	return out, nil
}

// evalBody evaluates one method intraprocedurally under its current
// summaries, propagating argument facts into callees and recording sink
// findings.
func (a *Analyzer) evalBody(m dex.MethodRef, body *ir.Body, states map[string]*methodState, globals map[string]*constprop.Fact, findings map[string]*Finding) error {
	st := states[m.SootSignature()]
	env := make([]*constprop.Fact, len(body.Locals)) // by register; nil until bound

	for idx, u := range body.Units {
		if err := a.meter.Charge(1); err != nil {
			return err
		}
		switch s := u.(type) {
		case *ir.IdentityStmt:
			switch rhs := s.RHS.(type) {
			case *ir.ThisRef:
				env[s.LHS.Reg] = constprop.NewFact(constprop.Token{Sig: "this " + rhs.Class})
			case *ir.ParamRef:
				if f, ok := st.in[rhs.Index]; ok {
					env[s.LHS.Reg] = f
				} else {
					env[s.LHS.Reg] = constprop.NewFact(constprop.Unknown{})
				}
			}

		case *ir.AssignStmt:
			var fact *constprop.Fact
			if inv, ok := s.RHS.(*ir.InvokeExpr); ok {
				f, err := a.evalCall(m, idx, inv, env, states, globals, findings)
				if err != nil {
					return err
				}
				fact = f
			} else {
				fact = a.evalValue(s.RHS, env, globals)
			}
			switch lhs := s.LHS.(type) {
			case *ir.Local:
				env[lhs.Reg] = fact
			case *ir.StaticFieldRef:
				sig := lhs.Field.SootSignature()
				if g, ok := globals[sig]; ok {
					before := g.Size()
					g.Merge(fact)
					if g.Size() != before {
						st.changed = true
					}
				} else {
					globals[sig] = fact
					st.changed = true
				}
			case *ir.InstanceFieldRef:
				base := a.evalValue(lhs.Base, env, globals)
				for _, v := range base.Values() {
					if obj, ok := v.(*constprop.Obj); ok {
						obj.Fields[lhs.Field] = fact
					}
				}
			}

		case *ir.InvokeStmt:
			if _, err := a.evalCall(m, idx, s.Invoke, env, states, globals, findings); err != nil {
				return err
			}

		case *ir.ReturnStmt:
			if s.Val != nil {
				before := st.ret.Size()
				st.ret.Merge(a.evalValue(s.Val, env, globals))
				if st.ret.Size() != before {
					st.changed = true
				}
			}
		}
	}
	return nil
}

// evalCall records findings at sink sites, pushes argument facts into
// callee summaries and returns the merged return summary.
func (a *Analyzer) evalCall(m dex.MethodRef, idx int, inv *ir.InvokeExpr, env []*constprop.Fact, states map[string]*methodState, globals map[string]*constprop.Fact, findings map[string]*Finding) (*constprop.Fact, error) {
	if sink, ok := a.sinkMatch(inv.Method); ok {
		key := m.SootSignature() + "#" + strconv.Itoa(idx)
		f, exists := findings[key]
		if !exists {
			f = &Finding{Sink: sink, Caller: m, UnitIndex: idx}
			findings[key] = f
		}
		if sink.ParamIndex < len(inv.Args) {
			fact := a.evalValue(inv.Args[sink.ParamIndex], env, globals)
			f.Values = fact.Strings()
			f.Insecure = vuln.Judge(sink.Rule, fact.Values())
		}
	}

	ret := constprop.NewFact()
	callees := a.resolveCalleesCached(inv)
	if err := a.meter.Charge(int64(len(callees))); err != nil {
		return nil, err
	}
	for _, callee := range callees {
		calleeState, ok := states[callee.SootSignature()]
		if !ok {
			continue
		}
		for i, arg := range inv.Args {
			fact := a.evalValue(arg, env, globals)
			// Summary merging costs one unit per value per callee — the
			// CHA fan-out times value-set size product that dominates
			// whole-app dataflow on large apps.
			_ = a.meter.Charge(int64(fact.Size()))
			if existing, ok2 := calleeState.in[i]; ok2 {
				before := existing.Size()
				existing.Merge(fact)
				if existing.Size() != before {
					calleeState.changed = true
				}
			} else {
				calleeState.in[i] = constprop.NewFact()
				calleeState.in[i].Merge(fact)
				calleeState.changed = true
			}
		}
		ret.Merge(calleeState.ret)
	}
	if ret.Empty() {
		ret.Add(constprop.Token{Sig: inv.Method.SootSignature() + "()"})
	}
	return ret, nil
}

// evalValue computes intraprocedural facts.
func (a *Analyzer) evalValue(v ir.Value, env []*constprop.Fact, globals map[string]*constprop.Fact) *constprop.Fact {
	switch t := v.(type) {
	case *ir.Local:
		if f := env[t.Reg]; f != nil {
			return f
		}
		return constprop.NewFact(constprop.Unknown{})
	case ir.StringConst:
		return constprop.NewFact(constprop.Str{S: t.V})
	case ir.IntConst:
		return constprop.NewFact(constprop.Num{N: t.V})
	case ir.NullConst:
		return constprop.NewFact(constprop.Null{})
	case ir.ClassConst:
		return constprop.NewFact(constprop.Token{Sig: "class " + t.Class})
	case *ir.StaticFieldRef:
		if android.IsSystemClass(t.Field.Class) {
			return constprop.NewFact(constprop.Token{Sig: t.Field.SootSignature()})
		}
		if f, ok := globals[t.Field.SootSignature()]; ok {
			return f
		}
		return constprop.NewFact(constprop.Unknown{})
	case *ir.InstanceFieldRef:
		base := a.evalValue(t.Base, env, globals)
		out := constprop.NewFact()
		for _, bv := range base.Values() {
			if obj, ok := bv.(*constprop.Obj); ok {
				if f, ok2 := obj.Fields[t.Field]; ok2 {
					out.Merge(f)
				}
			}
		}
		if out.Empty() {
			out.Add(constprop.Unknown{})
		}
		return out
	case *ir.BinopExpr:
		return a.evalBinop(t, env, globals)
	case *ir.CastExpr:
		return a.evalValue(t.Val, env, globals)
	case *ir.NewExpr:
		return constprop.NewFact(constprop.Token{Sig: "new " + t.Class})
	}
	return constprop.NewFact(constprop.Unknown{})
}

// binopSetCap bounds the value-set size produced by arithmetic on constant
// sets, mirroring the k-limits of real whole-app analyses. The pairwise
// evaluation below is charged per pair: this is the value-set explosion
// that makes whole-app dataflow blow up on constant-diverse apps (the
// Amandroid timeout mechanism).
func (a *Analyzer) evalBinop(b *ir.BinopExpr, env []*constprop.Fact, globals map[string]*constprop.Fact) *constprop.Fact {
	left := a.evalValue(b.Left, env, globals)
	right := a.evalValue(b.Right, env, globals)
	// Saturated operands short-circuit: once a set degraded to Unknown the
	// result is Unknown (and stays cheap). Below saturation the pairwise
	// evaluation is charged per pair — the value-set growth phase whose
	// length depends on how many distinct constants the app's dataflow
	// carries.
	if left.HasUnknown() || right.HasUnknown() {
		_ = a.meter.Charge(int64(left.Size()) + int64(right.Size()))
		return constprop.NewFact(constprop.Unknown{})
	}
	_ = a.meter.Charge(int64(left.Size()) * int64(right.Size()))
	out := constprop.NewFact()
	for _, lv := range left.Values() {
		for _, rv := range right.Values() {
			out.Add(constprop.ApplyBinop(b.Op, lv, rv))
		}
	}
	return out
}

// sinkMatch decides whether an invoke targets a sink API, resolving app
// subclasses of sink classes up the hierarchy (whole-app analyses see
// through this, unlike BackDroid's default text search).
func (a *Analyzer) sinkMatch(ref dex.MethodRef) (android.Sink, bool) {
	for _, sink := range a.sinks {
		if ref.SootSignature() == sink.Method.SootSignature() {
			return sink, true
		}
		if ref.Name != sink.Method.Name || ref.Descriptor() != sink.Method.Descriptor() {
			continue
		}
		if android.IsSystemClass(ref.Class) {
			continue
		}
		// App class that extends the sink's class without redefining the
		// method: the call lands in the framework sink.
		if a.hier.IsSubclassOf(ref.Class, sink.Method.Class) {
			if _, defined := a.hier.ResolveVirtual(ref.Class, ref.Name, ref.Params); !defined {
				return sink, true
			}
		}
	}
	return android.Sink{}, false
}
