package core

import (
	"backdroid/internal/android"
	"backdroid/internal/bcsearch"
	"backdroid/internal/dex"
	"backdroid/internal/ir"
	"backdroid/internal/ssg"
)

// buildSSG performs the adjusted backward slicing of paper Sec. V-A: it
// backtracks from the sink call, tainting across locals, fields, arrays
// and contained methods, locating callers with the Sec. IV searches, and
// records everything — raw typed statements, inter-procedural edges, the
// hierarchical taint map — into a self-contained slicing graph. Finally it
// adds off-path static initializers for still-unresolved static fields.
func (e *Engine) buildSSG(call SinkCall) (*ssg.Graph, error) {
	g := ssg.New(call.Sink.Method)
	caller := e.prog.ID(call.Caller)
	body, err := e.prog.BodyOf(caller)
	if err != nil {
		return g, nil // transformation failure: empty SSG
	}

	g.MarkSink(g.AddUnit(caller, call.Caller, call.UnitIndex, body.Units[call.UnitIndex]))

	inv := ir.InvokeOf(body.Units[call.UnitIndex])
	if inv == nil || call.Sink.ParamIndex >= len(inv.Args) {
		return g, nil
	}
	ts := g.Taints(caller)
	if l, ok := inv.Args[call.Sink.ParamIndex].(*ir.Local); ok {
		ts.AddLocal(l.Reg)
	}

	s := &slicer{engine: e, g: g, onPath: make(map[ir.MethodID]bool)}
	if err := s.slice(call.Caller, caller, call.UnitIndex, 0, false); err != nil {
		return nil, err
	}
	if err := s.addOffPathClinits(); err != nil {
		return nil, err
	}
	return g, nil
}

// slicer carries the state of one SSG construction. The static-field
// writer cache lives on the engine — the writer set is a pure function of
// the dump, so every slicer of the app shares it.
type slicer struct {
	engine *Engine
	g      *ssg.Graph
	// onPath holds the methods the slice descended through to reach the
	// one in progress (not that method itself): a callee already on it
	// closes a loop.
	onPath map[ir.MethodID]bool
}

// frame is one method being sliced: the method, its body and taint set,
// how deep the slice is and whether its units go to the static track.
type frame struct {
	method      dex.MethodRef
	id          ir.MethodID
	body        *ir.Body
	ts          *ssg.TaintSet
	depth       int
	staticTrack bool
}

// record adds unit idx to the SSG, with the identity statements binding
// the locals it references: the forward pass needs them whenever a
// recorded statement references the local, even if the identity itself
// never carried taint.
func (s *slicer) record(f *frame, idx int) *ssg.Unit {
	add := s.g.AddUnit
	if f.staticTrack {
		add = s.g.AddStaticUnit
	}
	u := add(f.id, f.method, idx, f.body.Units[idx])
	eachLocalOfUnit(f.body.Units[idx], func(l *ir.Local) {
		if ii := f.body.IdentityOf(l.Reg); ii >= 0 && ii != idx {
			add(f.id, f.method, ii, f.body.Units[ii])
		}
	})
	return u
}

// descend slices callee (whose ID is id) from unit fromIdx-1 one level
// below f, with f's method on the path.
func (s *slicer) descend(f *frame, callee dex.MethodRef, id ir.MethodID, fromIdx int, staticTrack bool) error {
	s.onPath[f.id] = true
	err := s.slice(callee, id, fromIdx, f.depth+1, staticTrack)
	delete(s.onPath, f.id)
	return err
}

// slice scans the method backward from unit fromIdx-1, consuming and
// producing taints in the method's taint set, then propagates remaining
// parameter taints to callers located by bytecode search. staticTrack
// routes recorded units into the SSG's special static track. id is the
// method's ID.
func (s *slicer) slice(method dex.MethodRef, id ir.MethodID, fromIdx int, depth int, staticTrack bool) error {
	e := s.engine
	if depth > e.opts.MaxDepth {
		return nil
	}
	if s.onPath[id] {
		if e.opts.EnableLoopDetection {
			e.loops[CrossBackward]++
		}
		return nil
	}
	body, err := e.prog.BodyOf(id)
	if err != nil {
		return nil // transformation failure: stop this branch
	}
	e.analyzed[id] = true
	if fromIdx < 0 || fromIdx > len(body.Units) {
		fromIdx = len(body.Units)
	}

	f := &frame{method: method, id: id, body: body, ts: s.g.Taints(id), depth: depth,
		staticTrack: staticTrack}
	ts := f.ts

	// Contained-method slices arrive with the return value tainted:
	// every return statement's value becomes tainted.
	retSeeded := ts.HasReturn()
	ts.RemoveReturn()

	thisTainted := false
	var taintedParams []int

	for i := fromIdx - 1; i >= 0; i-- {
		if err := e.meter.Charge(1); err != nil {
			return err
		}
		switch u := body.Units[i].(type) {
		case *ir.IdentityStmt:
			if !ts.HasLocal(u.LHS.Reg) && !ts.HasAnyFieldOf(u.LHS.Reg) {
				continue
			}
			s.record(f, i)
			switch rhs := u.RHS.(type) {
			case *ir.ThisRef:
				thisTainted = true
			case *ir.ParamRef:
				taintedParams = append(taintedParams, rhs.Index)
			}

		case *ir.AssignStmt:
			if err := s.handleAssign(f, i, u); err != nil {
				return err
			}

		case *ir.InvokeStmt:
			if err := s.handleInvoke(f, i, u.Invoke); err != nil {
				return err
			}

		case *ir.ReturnStmt:
			if l, ok := u.Val.(*ir.Local); ok && retSeeded {
				ts.AddLocal(l.Reg)
				s.record(f, i)
			}
		}
	}

	// Lifecycle predecessor handling (Sec. IV-E): state written by an
	// earlier handler of the same component (e.g. a field set in
	// onCreate, read here) is resolved by slicing the predecessor
	// handlers from their ends.
	if thisTainted && ts.HasAnyFieldOf(body.This) {
		if err := s.slicePredecessorHandlers(f); err != nil {
			return err
		}
	}

	if len(taintedParams) == 0 && !thisTainted {
		return nil // dataflow fully resolved inside this method
	}
	return s.propagateToCallers(f, taintedParams, thisTainted)
}

// handleAssign applies the backward taint transfer of one definition.
func (s *slicer) handleAssign(f *frame, idx int, u *ir.AssignStmt) error {
	ts := f.ts
	switch lhs := u.LHS.(type) {
	case *ir.Local:
		relevant := ts.HasLocal(lhs.Reg)
		// A constructor-style definition also matters when only fields of
		// the object are tainted (the alloc site closes the object).
		if _, isNew := u.RHS.(*ir.NewExpr); isNew && ts.HasAnyFieldOf(lhs.Reg) {
			relevant = true
		}
		if !relevant {
			return nil
		}
		s.record(f, idx)
		if _, isNew := u.RHS.(*ir.NewExpr); !isNew {
			ts.RemoveLocal(lhs.Reg)
		}
		return s.taintRHS(f, idx, u.RHS)

	case *ir.InstanceFieldRef:
		if !ts.HasField(lhs.Base.Reg, lhs.Field) {
			return nil
		}
		s.record(f, idx)
		ts.RemoveField(lhs.Base.Reg, lhs.Field)
		return s.taintRHS(f, idx, u.RHS)

	case *ir.StaticFieldRef:
		if !s.g.GlobalTaint.HasStatic(lhs.Field) {
			return nil
		}
		s.record(f, idx)
		s.g.GlobalTaint.RemoveStatic(lhs.Field)
		return s.taintRHS(f, idx, u.RHS)

	case *ir.ArrayRef:
		if !ts.HasLocal(lhs.Base.Reg) {
			return nil
		}
		// Array stores keep the array tainted: other elements may matter.
		s.record(f, idx)
		return s.taintRHS(f, idx, u.RHS)
	}
	return nil
}

// taintRHS taints whatever the right-hand side reads.
func (s *slicer) taintRHS(f *frame, idx int, rhs ir.Value) error {
	ts := f.ts
	switch v := rhs.(type) {
	case *ir.Local:
		ts.AddLocal(v.Reg)

	case ir.IntConst, ir.StringConst, ir.ClassConst, ir.NullConst:
		// Fully resolved; nothing upstream to taint.

	case *ir.InstanceFieldRef:
		// Taint both the field and its class object so the pair survives
		// aliasing and method boundaries (paper Sec. V-A).
		ts.AddField(v.Base.Reg, v.Field)
		ts.AddLocal(v.Base.Reg)

	case *ir.StaticFieldRef:
		if android.IsSystemClass(v.Field.Class) {
			// Framework constants (e.g. ALLOW_ALL_HOSTNAME_VERIFIER)
			// resolve to opaque tokens in the forward pass.
			return nil
		}
		s.g.GlobalTaint.AddStatic(v.Field)
		return s.traceStaticFieldWriters(v.Field)

	case *ir.ArrayRef:
		ts.AddLocal(v.Base.Reg)

	case *ir.BinopExpr, *ir.CastExpr:
		ir.EachLocal(v, func(l *ir.Local) { ts.AddLocal(l.Reg) })

	case *ir.NewArrayExpr:
		// Size is rarely security-relevant; keep contents tainted via
		// aput handling.

	case *ir.NewExpr:
		// Allocation site: the object is born here. Constructor effects
		// were already handled when the backward scan passed <init>.

	case *ir.InvokeExpr:
		return s.taintInvokeResult(f, idx, v)
	}
	return nil
}

// taintInvokeResult handles a tainted value produced by a call: descend
// into app callees from their return statements (contained methods with
// calling and return edges); model framework callees conservatively by
// tainting their receiver and arguments.
func (s *slicer) taintInvokeResult(f *frame, idx int, inv *ir.InvokeExpr) error {
	e := s.engine
	ts := f.ts
	if android.IsSystemClass(inv.Method.Class) || e.lookupMethod(inv.Method) == nil {
		if inv.Base != nil {
			ts.AddLocal(inv.Base.Reg)
		}
		for _, a := range inv.Args {
			if l, ok := a.(*ir.Local); ok {
				ts.AddLocal(l.Reg)
			}
		}
		return nil
	}

	// Contained method: slice the callee from its end with the returned
	// value tainted (the flag is replaced at the callee's ReturnStmt).
	callee := e.prog.ID(inv.Method)
	if e.opts.EnableLoopDetection && s.onPath[callee] {
		e.loops[InnerBackward]++
		return nil
	}
	site, _ := s.g.Unit(f.id, idx)
	if site == nil {
		site = s.g.AddUnit(f.id, f.method, idx, f.body.Units[idx])
	}
	s.g.AddEdge(ssg.CallEdge, site, callee, inv.Method)
	s.g.AddEdge(ssg.ReturnEdge, site, callee, inv.Method)

	calleeTaints := s.g.Taints(callee)
	calleeTaints.AddReturn()
	if err := s.descend(f, inv.Method, callee, -1, f.staticTrack); err != nil {
		return err
	}
	// Map the callee's residual parameter taints back to our arguments.
	s.mapCalleeParamsBack(inv, callee, calleeTaints, ts)
	return nil
}

// handleInvoke processes a result-less call during the backward scan: a
// constructor or setter may populate the tainted object or a tainted
// static field (the contained-method analysis of Sec. V-A).
func (s *slicer) handleInvoke(f *frame, idx int, inv *ir.InvokeExpr) error {
	e := s.engine
	ts := f.ts

	objRelevant := inv.Base != nil && (ts.HasAnyFieldOf(inv.Base.Reg) || (inv.Method.IsConstructor() && ts.HasLocal(inv.Base.Reg)))
	staticRelevant := false
	if !s.g.GlobalTaint.Empty() && e.lookupMethod(inv.Method) != nil {
		// Normally only methods matched by the static-field write search
		// are analyzed (Sec. V-A); the ablation analyzes every contained
		// method, which is what the paper calls "certainly slows down the
		// analysis".
		staticRelevant = e.opts.AnalyzeAllContained || s.writesTaintedStatic(e.prog.ID(inv.Method))
	}
	if !objRelevant && !staticRelevant {
		return nil
	}
	s.record(f, idx)

	if android.IsSystemClass(inv.Method.Class) || e.lookupMethod(inv.Method) == nil {
		return nil // e.g. Object.<init>: no app code to descend into
	}
	callee := e.prog.ID(inv.Method)
	if e.opts.EnableLoopDetection && s.onPath[callee] {
		e.loops[InnerBackward]++
		return nil
	}

	site := s.record(f, idx)
	s.g.AddEdge(ssg.CallEdge, site, callee, inv.Method)
	s.g.AddEdge(ssg.ReturnEdge, site, callee, inv.Method)

	calleeBody, err := e.prog.BodyOf(callee)
	if err != nil {
		return nil
	}
	calleeTaints := s.g.Taints(callee)
	if objRelevant {
		// Seed (this, field) taints matching the caller's (base, field).
		seedThis(calleeTaints, calleeBody, ts.FieldsOf(inv.Base.Reg))
	}
	if err := s.descend(f, inv.Method, callee, -1, f.staticTrack); err != nil {
		return err
	}
	s.mapCalleeParamsBack(inv, callee, calleeTaints, ts)
	return nil
}

// mapCalleeParamsBack maps residual tainted parameters of a sliced callee
// back to the caller's argument locals.
func (s *slicer) mapCalleeParamsBack(inv *ir.InvokeExpr, callee ir.MethodID, calleeTaints *ssg.TaintSet, ts *ssg.TaintSet) {
	body, err := s.engine.prog.BodyOf(callee)
	if err != nil {
		return
	}
	for _, u := range body.Units {
		id, ok := u.(*ir.IdentityStmt)
		if !ok {
			continue
		}
		pr, ok := id.RHS.(*ir.ParamRef)
		if !ok || !calleeTaints.HasLocal(id.LHS.Reg) {
			continue
		}
		if pr.Index < len(inv.Args) {
			if l, ok := inv.Args[pr.Index].(*ir.Local); ok {
				ts.AddLocal(l.Reg)
			}
		}
	}
}

// writesTaintedStatic reports whether the method is a writer of any
// currently tainted static field, using the field-signature bytecode
// search instead of analyzing every contained method (Sec. V-A).
func (s *slicer) writesTaintedStatic(method ir.MethodID) bool {
	return s.g.GlobalTaint.AnyStatic(func(f dex.FieldRef) bool {
		return s.engine.writerCache[f][method]
	})
}

// traceStaticFieldWriters launches the field-signature search when a new
// static field becomes tainted, caching the writer set engine-wide (the
// set depends only on the dump, never on the slice in progress).
func (s *slicer) traceStaticFieldWriters(field dex.FieldRef) error {
	e := s.engine
	if _, ok := e.writerCache[field]; ok {
		e.rec.merge(e.writerFrag[field])
		return nil
	}
	frame := e.rec.push()
	hits, err := e.search.FindFieldAccesses(field, bcsearch.FieldWrites)
	e.rec.pop()
	if err != nil {
		return err
	}
	writers := make(map[ir.MethodID]bool)
	for _, h := range hits {
		if h.Method.Name != "" {
			writers[e.prog.ID(h.Method)] = true
		}
	}
	e.writerCache[field] = writers
	e.writerFrag[field] = frame
	return nil
}

// slicePredecessorHandlers slices earlier lifecycle handlers of the same
// component to resolve this-field taints (Sec. IV-E domain knowledge).
func (s *slicer) slicePredecessorHandlers(f *frame) error {
	e := s.engine
	method := f.method
	kind, isComp := e.hier.ComponentKind(method.Class)
	if !isComp || !android.IsLifecycleMethod(kind, method.Name) {
		return nil
	}
	cls := e.lookupClass(method.Class)
	if cls == nil {
		return nil
	}
	// Walk the predecessor relation transitively: a field read in
	// onResume may have been written in onCreate even when the class
	// defines no onStart in between.
	seen := map[string]bool{method.Name: true}
	var preds []string
	queue := android.LifecyclePredecessors(kind, method.Name)
	for len(queue) > 0 {
		name := queue[0]
		queue = queue[1:]
		if seen[name] {
			continue
		}
		seen[name] = true
		preds = append(preds, name)
		queue = append(queue, android.LifecyclePredecessors(kind, name)...)
	}
	for _, pred := range preds {
		for _, m := range cls.Methods {
			if m.Ref.Name != pred || m.IsAbstract() {
				continue
			}
			predID := e.prog.ID(m.Ref)
			predBody, err := e.prog.BodyOf(predID)
			if err != nil {
				continue
			}
			// Transfer this-field taints into the predecessor handler.
			seedThis(s.g.Taints(predID), predBody, f.ts.FieldsOf(f.body.This))
			if err := s.descend(f, m.Ref, predID, -1, false); err != nil {
				return err
			}
		}
	}
	return nil
}

// propagateToCallers continues the backward slice in every caller located
// by the Sec. IV search mechanisms, mapping parameter taints through the
// call sites.
func (s *slicer) propagateToCallers(f *frame, taintedParams []int, thisTainted bool) error {
	e := s.engine
	sites, isEntry, err := e.findCallers(f.method)
	if err != nil {
		return err
	}
	if isEntry {
		s.g.MarkEntry(f.id, f.method)
		s.g.AddChain([]dex.MethodRef{f.method})
	}

	for _, site := range sites {
		caller := e.prog.ID(site.Method)
		if e.opts.EnableLoopDetection && s.onPath[caller] {
			e.loops[CrossBackward]++
			continue
		}
		callerBody, err := e.prog.BodyOf(caller)
		if err != nil {
			continue
		}
		fromIdx := site.UnitIndex
		if fromIdx < 0 || fromIdx >= len(callerBody.Units) {
			fromIdx = len(callerBody.Units)
		} else {
			siteUnit := s.g.AddUnit(caller, site.Method, site.UnitIndex, callerBody.Units[site.UnitIndex])
			s.g.AddEdge(ssg.CallEdge, siteUnit, f.id, f.method)
			// Advanced-search chains contribute their intermediate links
			// too (paper: use the maintained call chain, not one site);
			// a basic-search site has no chain.
			for _, link := range site.Chain[min(1, len(site.Chain)):] {
				lid := e.prog.ID(link.Method)
				linkBody, err := e.prog.BodyOf(lid)
				if err != nil || link.UnitIndex >= len(linkBody.Units) {
					continue
				}
				linkUnit := s.g.AddUnit(lid, link.Method, link.UnitIndex, linkBody.Units[link.UnitIndex])
				s.g.AddEdge(ssg.CallEdge, linkUnit, f.id, f.method)
			}
		}

		callerTaints := s.g.Taints(caller)
		for _, pi := range taintedParams {
			if site.ArgLocals != nil && pi < len(site.ArgLocals) && site.ArgLocals[pi] != nil {
				callerTaints.AddLocal(site.ArgLocals[pi].Reg)
			}
		}
		if thisTainted && site.BaseLocal != nil {
			callerTaints.AddLocal(site.BaseLocal.Reg)
			// this-field taints travel to the receiver object.
			for _, fld := range f.ts.FieldsOf(f.body.This) {
				callerTaints.AddField(site.BaseLocal.Reg, fld)
			}
		}
		if err := s.descend(f, site.Method, caller, fromIdx, false); err != nil {
			return err
		}
	}
	return nil
}

// addOffPathClinits adds the <clinit> methods of classes owning still
// unresolved tainted static fields into the SSG's static track
// (paper Sec. V-A "adding off-path static initializers into SSG on
// demand").
func (s *slicer) addOffPathClinits() error {
	e := s.engine
	for _, field := range s.g.GlobalTaint.StaticFields() {
		cls := e.lookupClass(field.Class)
		if cls == nil {
			continue
		}
		clinit := cls.FindMethod("<clinit>")
		if clinit == nil {
			continue
		}
		if err := s.slice(clinit.Ref, e.prog.ID(clinit.Ref), -1, 0, true); err != nil {
			return err
		}
	}
	return nil
}

// eachLocalOfUnit calls fn for every local a statement references, on
// either side; identity statements and branches reference none.
func eachLocalOfUnit(u ir.Unit, fn func(*ir.Local)) {
	switch st := u.(type) {
	case *ir.AssignStmt:
		ir.EachLocal(st.LHS, fn)
		ir.EachLocal(st.RHS, fn)
	case *ir.InvokeStmt:
		ir.EachLocal(st.Invoke, fn)
	case *ir.ReturnStmt:
		if st.Val != nil {
			ir.EachLocal(st.Val, fn)
		}
	case *ir.ThrowStmt:
		ir.EachLocal(st.Val, fn)
	}
}

// seedThis taints a callee's receiver and the given fields of it. A body
// without @this has its receiver taint go to register 0 when that
// register is an incoming argument ("r0"), and nowhere otherwise.
func seedThis(ts *ssg.TaintSet, body *ir.Body, fields []dex.FieldRef) {
	this := body.This
	if this < 0 {
		if len(body.Locals) == 0 || !body.Locals[0].In {
			return
		}
		this = 0
	}
	for _, fld := range fields {
		ts.AddField(this, fld)
	}
	ts.AddLocal(this)
}
