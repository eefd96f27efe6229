package core

import (
	"backdroid/internal/android"
	"backdroid/internal/dex"
	"backdroid/internal/ir"
)

// advancedSearch implements paper Sec. IV-B: for callee methods reached
// through super classes, interfaces, callbacks or asynchronous flows, a
// direct signature search would hit nothing. Instead:
//
//  1. search the callee class's object constructor(s), which are accurately
//     locatable by signature search;
//  2. from each constructor site, run forward object taint analysis on the
//     constructed object;
//  3. stop at an "ending method" — detected not by pre-defined flow
//     mappings but by the indicator class type: an on-path framework API
//     call that consumes the tainted object under the indicator type
//     (e.g. Executor.execute(Runnable)), or a direct virtual call through
//     the supertype's signature;
//  4. maintain and return the full call chain so the further backward
//     search follows only flows that truly trace back to the constructor.
func (e *Engine) advancedSearch(callee dex.MethodRef, indicator string) ([]callerSite, error) {
	ctorHits, err := e.search.FindConstructorCalls(callee.Class)
	if err != nil {
		return nil, err
	}

	var sites []callerSite
	for _, hit := range ctorHits {
		if hit.Method.Name == "" || hit.Method.Class == callee.Class {
			// Skip self-delegating constructors inside the callee class.
			continue
		}
		body, err := e.prog.Body(hit.Method)
		if err != nil {
			continue
		}
		for _, idx := range e.ctorSites(body, callee.Class) {
			inv := ir.InvokeOf(body.Units[idx])
			if inv == nil || inv.Base == nil {
				continue
			}
			ft := &forwardTaint{
				engine:    e,
				callee:    callee,
				indicator: indicator,
				visited:   make(map[string]bool),
			}
			chains := ft.run(hit.Method, body, idx, inv.Base, nil)
			for _, chain := range chains {
				sites = append(sites, callerSite{
					Method:    hit.Method,
					UnitIndex: idx,
					BaseLocal: inv.Base,
					Chain:     chain,
				})
			}
		}
	}
	return sites, nil
}

// ctorSites finds invoke-direct <init> units of the given class in a body.
func (e *Engine) ctorSites(body *ir.Body, class string) []int {
	var out []int
	for i, u := range body.Units {
		inv := ir.InvokeOf(u)
		if inv == nil || inv.Kind != ir.KindSpecial {
			continue
		}
		if inv.Method.IsConstructor() && inv.Method.Class == class {
			out = append(out, i)
		}
	}
	return out
}

// forwardTaint is one advanced-search forward propagation: it tracks the
// constructed object through DefinitionStmt, InvokeStmt and ReturnStmt
// (the three statement kinds of Sec. IV-B) until ending methods are found.
type forwardTaint struct {
	engine    *Engine
	callee    dex.MethodRef
	indicator string
	visited   map[string]bool // methods visited across this whole search (CrossForward)
}

// run propagates the tainted object through the body starting after unit
// `from`, following copies and inter-procedural argument passing. It
// returns the completed call chains ending at an ending method.
func (ft *forwardTaint) run(method dex.MethodRef, body *ir.Body, from int, obj *ir.Local, chain []chainLink) [][]chainLink {
	e := ft.engine
	if len(chain) >= e.opts.MaxDepth {
		return nil
	}
	sig := method.SootSignature()
	if e.opts.EnableLoopDetection {
		// InnerForward: the same method repeating within one call chain.
		for _, link := range chain {
			if link.Method.SootSignature() == sig {
				e.loops[InnerForward]++
				return nil
			}
		}
		// CrossForward: revisiting a method already fully propagated in
		// this advanced search.
		key := sig + "@" + obj.Name
		if ft.visited[key] {
			e.loops[CrossForward]++
			return nil
		}
		ft.visited[key] = true
	}
	chain = append(chain, chainLink{Method: method, UnitIndex: from})

	tainted := map[string]bool{obj.Name: true}
	var chains [][]chainLink

	for i := from + 1; i < len(body.Units); i++ {
		if err := e.meter.Charge(1); err != nil {
			return chains
		}
		switch s := body.Units[i].(type) {
		case *ir.AssignStmt:
			// Copy propagation through locals and casts.
			switch rhs := s.RHS.(type) {
			case *ir.Local:
				ft.assign(tainted, s.LHS, tainted[rhs.Name])
			case *ir.CastExpr:
				if l, ok := rhs.Val.(*ir.Local); ok {
					ft.assign(tainted, s.LHS, tainted[l.Name])
				}
			case *ir.InvokeExpr:
				chains = append(chains, ft.invoke(method, body, i, rhs, tainted, chain)...)
			}
		case *ir.InvokeStmt:
			chains = append(chains, ft.invoke(method, body, i, s.Invoke, tainted, chain)...)
		case *ir.ReturnStmt:
			// A returned tainted object continues in the callers of this
			// method (located by basic search to bound the recursion).
			if l, ok := s.Val.(*ir.Local); ok && tainted[l.Name] {
				chains = append(chains, ft.returnFlow(method, chain)...)
			}
		}
	}
	return chains
}

func (ft *forwardTaint) assign(tainted map[string]bool, lhs ir.Value, taint bool) {
	l, ok := lhs.(*ir.Local)
	if !ok {
		return
	}
	if taint {
		tainted[l.Name] = true
	} else {
		delete(tainted, l.Name)
	}
}

// invoke checks an on-path call: either it is the ending method, or the
// tainted object escapes into an app callee and propagation continues
// there.
func (ft *forwardTaint) invoke(method dex.MethodRef, body *ir.Body, idx int, inv *ir.InvokeExpr, tainted map[string]bool, chain []chainLink) [][]chainLink {
	e := ft.engine

	baseTainted := inv.Base != nil && tainted[inv.Base.Name]
	var taintedArgs []int
	for ai, a := range inv.Args {
		if l, ok := a.(*ir.Local); ok && tainted[l.Name] {
			taintedArgs = append(taintedArgs, ai)
		}
	}
	if !baseTainted && len(taintedArgs) == 0 {
		return nil
	}

	full := append(append([]chainLink(nil), chain...), chainLink{Method: inv.Method, UnitIndex: idx})

	// Ending check 1 (super-class case): a virtual call through the
	// indicator type's signature with the tainted object as receiver and
	// the callee's own sub-signature dispatches to our callee.
	if baseTainted && inv.Method.Name == ft.callee.Name &&
		inv.Method.Descriptor() == ft.callee.Descriptor() &&
		(inv.Method.Class == ft.indicator || e.hier.IsSubclassOf(ft.indicator, inv.Method.Class)) {
		return [][]chainLink{full}
	}

	if android.IsSystemClass(inv.Method.Class) {
		// Ending check 2 (receiver-based async: Thread.start(),
		// AsyncTask.execute()): a framework call on the tainted object
		// whose class is the async indicator or one of its supertypes.
		if baseTainted && android.IsAsyncCallbackClass(ft.indicator) &&
			(inv.Method.Class == ft.indicator || e.hier.IsSubclassOf(ft.indicator, inv.Method.Class)) {
			return [][]chainLink{full}
		}
		// Ending check 3 (interface/callback case): a framework API call
		// with a tainted argument whose declared parameter type is the
		// indicator class type — e.g. Executor.execute(java.lang.Runnable)
		// (the case pre-defined mappings would miss; paper Fig. 4).
		for _, ai := range taintedArgs {
			pt := inv.Method.Params[ai]
			if !pt.IsObject() {
				continue
			}
			pc := pt.ClassName()
			if pc == ft.indicator || e.hier.IsSubclassOf(ft.indicator, pc) {
				return [][]chainLink{full}
			}
		}
		return nil
	}

	// App callee: the object escapes into it; continue propagation there.
	calleeBody, err := e.prog.Body(inv.Method)
	if err != nil {
		return nil
	}
	var out [][]chainLink
	for _, ai := range taintedArgs {
		// Find the identity unit binding @parameter ai.
		for ui, u := range calleeBody.Units {
			id, ok := u.(*ir.IdentityStmt)
			if !ok {
				continue
			}
			pr, ok := id.RHS.(*ir.ParamRef)
			if !ok || pr.Index != ai {
				continue
			}
			out = append(out, ft.run(inv.Method, calleeBody, ui, id.LHS, chain)...)
			break
		}
	}
	return out
}

// returnFlow continues propagation in basic-search callers after the
// current method returns the tainted object.
func (ft *forwardTaint) returnFlow(method dex.MethodRef, chain []chainLink) [][]chainLink {
	e := ft.engine
	m := e.lookupMethod(method)
	if m == nil || !m.IsDirect() {
		// Virtual methods would recurse into another advanced search;
		// bound the analysis as the prototype does.
		return nil
	}
	hits, err := e.search.FindInvocations(method)
	if err != nil {
		return nil
	}
	var out [][]chainLink
	for _, hit := range hits {
		if hit.Method.Name == "" {
			continue
		}
		callerBody, err := e.prog.Body(hit.Method)
		if err != nil {
			continue
		}
		for _, idx := range e.findCallSites(callerBody, method) {
			if as, ok := callerBody.Units[idx].(*ir.AssignStmt); ok {
				if l, ok := as.LHS.(*ir.Local); ok {
					out = append(out, ft.run(hit.Method, callerBody, idx, l, chain)...)
				}
			}
		}
	}
	return out
}
