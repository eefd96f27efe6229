package core

import (
	"backdroid/internal/android"
	"backdroid/internal/bcsearch"
	"backdroid/internal/dex"
	"backdroid/internal/ir"
	"backdroid/internal/ssg"
)

// retSentinel is the pseudo-local standing for "the callee's return value"
// when a contained method is sliced from its end.
const retSentinel = "\x00ret"

// buildSSG performs the adjusted backward slicing of paper Sec. V-A: it
// backtracks from the sink call, tainting across locals, fields, arrays
// and contained methods, locating callers with the Sec. IV searches, and
// records everything — raw typed statements, inter-procedural edges, the
// hierarchical taint map — into a self-contained slicing graph. Finally it
// adds off-path static initializers for still-unresolved static fields.
func (e *Engine) buildSSG(call SinkCall) (*ssg.Graph, error) {
	g := ssg.New(call.Sink.Method)
	body, err := e.prog.Body(call.Caller)
	if err != nil {
		return g, nil // transformation failure: empty SSG
	}

	g.MarkSink(g.AddUnit(call.Caller, call.UnitIndex, body.Units[call.UnitIndex]))

	inv := ir.InvokeOf(body.Units[call.UnitIndex])
	if inv == nil || call.Sink.ParamIndex >= len(inv.Args) {
		return g, nil
	}
	ts := g.Taints(call.Caller)
	if l, ok := inv.Args[call.Sink.ParamIndex].(*ir.Local); ok {
		ts.AddLocal(l.Name)
	}

	s := &slicer{engine: e, g: g}
	if err := s.slice(call.Caller, call.UnitIndex, nil, 0, false); err != nil {
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
}

// slice scans the method backward from unit fromIdx-1, consuming and
// producing taints in the method's taint set, then propagates remaining
// parameter taints to callers located by bytecode search. staticTrack
// routes recorded units into the SSG's special static track.
func (s *slicer) slice(method dex.MethodRef, fromIdx int, path []string, depth int, staticTrack bool) error {
	e := s.engine
	sig := method.SootSignature()
	if depth > e.opts.MaxDepth {
		return nil
	}
	for _, p := range path {
		if p == sig {
			if e.opts.EnableLoopDetection {
				e.loops[CrossBackward]++
			}
			return nil
		}
	}
	body, err := e.prog.Body(method)
	if err != nil {
		return nil // transformation failure: stop this branch
	}
	e.analyzed[sig] = true
	if fromIdx < 0 || fromIdx > len(body.Units) {
		fromIdx = len(body.Units)
	}

	ts := s.g.Taints(method)

	// Identity statements bind @this/@parameter to locals; the forward
	// pass needs them whenever a recorded statement references the local,
	// even if the identity itself never carried taint.
	identOf := make(map[string]int)
	for i, u := range body.Units {
		if id, ok := u.(*ir.IdentityStmt); ok {
			identOf[id.LHS.Name] = i
		}
	}
	record := func(idx int) *ssg.Unit {
		add := s.g.AddUnit
		if staticTrack {
			add = s.g.AddStaticUnit
		}
		u := add(method, idx, body.Units[idx])
		for _, l := range localsOfUnit(body.Units[idx]) {
			if ii, ok := identOf[l.Name]; ok && ii != idx {
				add(method, ii, body.Units[ii])
			}
		}
		return u
	}

	// Contained-method slices arrive with a return-value sentinel: every
	// return statement's value becomes tainted.
	retSeeded := ts.HasLocal(retSentinel)
	if retSeeded {
		ts.RemoveLocal(retSentinel)
	}

	thisTainted := false
	var taintedParams []int

	for i := fromIdx - 1; i >= 0; i-- {
		if err := e.meter.Charge(1); err != nil {
			return err
		}
		switch u := body.Units[i].(type) {
		case *ir.IdentityStmt:
			if !ts.HasLocal(u.LHS.Name) && !ts.HasAnyFieldOf(u.LHS.Name) {
				continue
			}
			record(i)
			switch rhs := u.RHS.(type) {
			case *ir.ThisRef:
				thisTainted = true
			case *ir.ParamRef:
				taintedParams = append(taintedParams, rhs.Index)
			}

		case *ir.AssignStmt:
			if err := s.handleAssign(method, body, i, u, ts, record, path, depth, staticTrack); err != nil {
				return err
			}

		case *ir.InvokeStmt:
			if err := s.handleInvoke(method, body, i, u.Invoke, ts, record, path, depth, staticTrack); err != nil {
				return err
			}

		case *ir.ReturnStmt:
			if l, ok := u.Val.(*ir.Local); ok && retSeeded {
				ts.AddLocal(l.Name)
				record(i)
			}
		}
	}

	// Lifecycle predecessor handling (Sec. IV-E): state written by an
	// earlier handler of the same component (e.g. a field set in
	// onCreate, read here) is resolved by slicing the predecessor
	// handlers from their ends.
	if thisTainted && ts.HasAnyFieldOf(thisLocalName(body)) {
		if err := s.slicePredecessorHandlers(method, path, depth); err != nil {
			return err
		}
	}

	if len(taintedParams) == 0 && !thisTainted {
		return nil // dataflow fully resolved inside this method
	}
	return s.propagateToCallers(method, body, taintedParams, thisTainted, path, depth)
}

// handleAssign applies the backward taint transfer of one definition.
func (s *slicer) handleAssign(method dex.MethodRef, body *ir.Body, idx int, u *ir.AssignStmt, ts *ssg.TaintSet, record func(int) *ssg.Unit, path []string, depth int, staticTrack bool) error {
	switch lhs := u.LHS.(type) {
	case *ir.Local:
		relevant := ts.HasLocal(lhs.Name)
		// A constructor-style definition also matters when only fields of
		// the object are tainted (the alloc site closes the object).
		if _, isNew := u.RHS.(*ir.NewExpr); isNew && ts.HasAnyFieldOf(lhs.Name) {
			relevant = true
		}
		if !relevant {
			return nil
		}
		record(idx)
		if _, isNew := u.RHS.(*ir.NewExpr); !isNew {
			ts.RemoveLocal(lhs.Name)
		}
		return s.taintRHS(method, body, idx, u.RHS, ts, record, path, depth, staticTrack)

	case *ir.InstanceFieldRef:
		if !ts.HasField(lhs.Base.Name, lhs.Field) {
			return nil
		}
		record(idx)
		ts.RemoveField(lhs.Base.Name, lhs.Field)
		return s.taintRHS(method, body, idx, u.RHS, ts, record, path, depth, staticTrack)

	case *ir.StaticFieldRef:
		if !s.g.GlobalTaint.HasStatic(lhs.Field) {
			return nil
		}
		record(idx)
		s.g.GlobalTaint.RemoveStatic(lhs.Field)
		return s.taintRHS(method, body, idx, u.RHS, ts, record, path, depth, staticTrack)

	case *ir.ArrayRef:
		if !ts.HasLocal(lhs.Base.Name) {
			return nil
		}
		// Array stores keep the array tainted: other elements may matter.
		record(idx)
		return s.taintRHS(method, body, idx, u.RHS, ts, record, path, depth, staticTrack)
	}
	return nil
}

// taintRHS taints whatever the right-hand side reads.
func (s *slicer) taintRHS(method dex.MethodRef, body *ir.Body, idx int, rhs ir.Value, ts *ssg.TaintSet, record func(int) *ssg.Unit, path []string, depth int, staticTrack bool) error {
	switch v := rhs.(type) {
	case *ir.Local:
		ts.AddLocal(v.Name)

	case ir.IntConst, ir.StringConst, ir.ClassConst, ir.NullConst:
		// Fully resolved; nothing upstream to taint.

	case *ir.InstanceFieldRef:
		// Taint both the field and its class object so the pair survives
		// aliasing and method boundaries (paper Sec. V-A).
		ts.AddField(v.Base.Name, v.Field)
		ts.AddLocal(v.Base.Name)

	case *ir.StaticFieldRef:
		if android.IsSystemClass(v.Field.Class) {
			// Framework constants (e.g. ALLOW_ALL_HOSTNAME_VERIFIER)
			// resolve to opaque tokens in the forward pass.
			return nil
		}
		s.g.GlobalTaint.AddStatic(v.Field)
		return s.traceStaticFieldWriters(v.Field, path, depth)

	case *ir.ArrayRef:
		ts.AddLocal(v.Base.Name)

	case *ir.BinopExpr:
		for _, l := range ir.LocalsOf(v) {
			ts.AddLocal(l.Name)
		}

	case *ir.CastExpr:
		for _, l := range ir.LocalsOf(v) {
			ts.AddLocal(l.Name)
		}

	case *ir.NewArrayExpr:
		// Size is rarely security-relevant; keep contents tainted via
		// aput handling.

	case *ir.NewExpr:
		// Allocation site: the object is born here. Constructor effects
		// were already handled when the backward scan passed <init>.

	case *ir.InvokeExpr:
		return s.taintInvokeResult(method, body, idx, v, ts, path, depth, staticTrack)
	}
	return nil
}

// taintInvokeResult handles a tainted value produced by a call: descend
// into app callees from their return statements (contained methods with
// calling and return edges); model framework callees conservatively by
// tainting their receiver and arguments.
func (s *slicer) taintInvokeResult(method dex.MethodRef, body *ir.Body, idx int, inv *ir.InvokeExpr, ts *ssg.TaintSet, path []string, depth int, staticTrack bool) error {
	e := s.engine
	if android.IsSystemClass(inv.Method.Class) || e.lookupMethod(inv.Method) == nil {
		if inv.Base != nil {
			ts.AddLocal(inv.Base.Name)
		}
		for _, a := range inv.Args {
			if l, ok := a.(*ir.Local); ok {
				ts.AddLocal(l.Name)
			}
		}
		return nil
	}

	// Contained method: slice the callee from its end with the returned
	// value tainted (the sentinel is replaced at the callee's ReturnStmt).
	if e.opts.EnableLoopDetection {
		for _, p := range path {
			if p == inv.Method.SootSignature() {
				e.loops[InnerBackward]++
				return nil
			}
		}
	}
	site, _ := s.g.Unit(method, idx)
	if site == nil {
		site = s.g.AddUnit(method, idx, body.Units[idx])
	}
	s.g.AddEdge(ssg.CallEdge, site, inv.Method)
	s.g.AddEdge(ssg.ReturnEdge, site, inv.Method)

	calleeTaints := s.g.Taints(inv.Method)
	calleeTaints.AddLocal(retSentinel)
	if err := s.slice(inv.Method, -1, append(path, method.SootSignature()), depth+1, staticTrack); err != nil {
		return err
	}
	// Map the callee's residual parameter taints back to our arguments.
	s.mapCalleeParamsBack(inv, calleeTaints, ts)
	return nil
}

// handleInvoke processes a result-less call during the backward scan: a
// constructor or setter may populate the tainted object or a tainted
// static field (the contained-method analysis of Sec. V-A).
func (s *slicer) handleInvoke(method dex.MethodRef, body *ir.Body, idx int, inv *ir.InvokeExpr, ts *ssg.TaintSet, record func(int) *ssg.Unit, path []string, depth int, staticTrack bool) error {
	e := s.engine

	objRelevant := inv.Base != nil && (ts.HasAnyFieldOf(inv.Base.Name) || (inv.Method.IsConstructor() && ts.HasLocal(inv.Base.Name)))
	staticRelevant := false
	if !s.g.GlobalTaint.Empty() && e.lookupMethod(inv.Method) != nil {
		// Normally only methods matched by the static-field write search
		// are analyzed (Sec. V-A); the ablation analyzes every contained
		// method, which is what the paper calls "certainly slows down the
		// analysis".
		staticRelevant = e.opts.AnalyzeAllContained || s.writesTaintedStatic(inv.Method)
	}
	if !objRelevant && !staticRelevant {
		return nil
	}
	record(idx)

	if android.IsSystemClass(inv.Method.Class) || e.lookupMethod(inv.Method) == nil {
		return nil // e.g. Object.<init>: no app code to descend into
	}
	if e.opts.EnableLoopDetection {
		for _, p := range path {
			if p == inv.Method.SootSignature() {
				e.loops[InnerBackward]++
				return nil
			}
		}
	}

	site := record(idx)
	s.g.AddEdge(ssg.CallEdge, site, inv.Method)
	s.g.AddEdge(ssg.ReturnEdge, site, inv.Method)

	calleeBody, err := e.prog.Body(inv.Method)
	if err != nil {
		return nil
	}
	calleeTaints := s.g.Taints(inv.Method)
	if objRelevant {
		calleeThis := thisLocalName(calleeBody)
		// Seed (this, field) taints matching the caller's (base, field).
		for _, f := range taintedFieldsOf(ts, inv.Base.Name) {
			calleeTaints.AddField(calleeThis, f)
		}
		calleeTaints.AddLocal(calleeThis)
	}
	if err := s.slice(inv.Method, -1, append(path, method.SootSignature()), depth+1, staticTrack); err != nil {
		return err
	}
	s.mapCalleeParamsBack(inv, calleeTaints, ts)
	return nil
}

// mapCalleeParamsBack maps residual tainted parameters of a sliced callee
// back to the caller's argument locals.
func (s *slicer) mapCalleeParamsBack(inv *ir.InvokeExpr, calleeTaints *ssg.TaintSet, ts *ssg.TaintSet) {
	body, err := s.engine.prog.Body(inv.Method)
	if err != nil {
		return
	}
	for _, u := range body.Units {
		id, ok := u.(*ir.IdentityStmt)
		if !ok {
			continue
		}
		pr, ok := id.RHS.(*ir.ParamRef)
		if !ok || !calleeTaints.HasLocal(id.LHS.Name) {
			continue
		}
		if pr.Index < len(inv.Args) {
			if l, ok := inv.Args[pr.Index].(*ir.Local); ok {
				ts.AddLocal(l.Name)
			}
		}
	}
}

// writesTaintedStatic reports whether the method is a writer of any
// currently tainted static field, using the field-signature bytecode
// search instead of analyzing every contained method (Sec. V-A).
func (s *slicer) writesTaintedStatic(ref dex.MethodRef) bool {
	for _, fieldSig := range s.g.GlobalTaint.StaticFields() {
		writers, ok := s.staticWriters(fieldSig)
		if !ok {
			continue
		}
		if writers[ref.SootSignature()] {
			return true
		}
	}
	return false
}

// traceStaticFieldWriters launches the field-signature search when a new
// static field becomes tainted, caching the writer set engine-wide (the
// set depends only on the dump, never on the slice in progress).
func (s *slicer) traceStaticFieldWriters(field dex.FieldRef, path []string, depth int) error {
	e := s.engine
	sig := field.SootSignature()
	if _, ok := e.writerCache[sig]; ok {
		e.rec.merge(e.writerFrag[sig])
		return nil
	}
	frame := e.rec.push()
	hits, err := e.search.FindFieldAccesses(field, bcsearch.FieldWrites)
	e.rec.pop()
	if err != nil {
		return err
	}
	writers := make(map[string]bool)
	for _, h := range hits {
		if h.Method.Name != "" {
			writers[h.Method.SootSignature()] = true
		}
	}
	e.writerCache[sig] = writers
	e.writerFrag[sig] = frame
	return nil
}

// staticWriters returns the cached writer set of a static field.
func (s *slicer) staticWriters(fieldSig string) (map[string]bool, bool) {
	w, ok := s.engine.writerCache[fieldSig]
	return w, ok
}

// slicePredecessorHandlers slices earlier lifecycle handlers of the same
// component to resolve this-field taints (Sec. IV-E domain knowledge).
func (s *slicer) slicePredecessorHandlers(method dex.MethodRef, path []string, depth int) error {
	e := s.engine
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
			predBody, err := e.prog.Body(m.Ref)
			if err != nil {
				continue
			}
			// Transfer this-field taints into the predecessor handler.
			curBody, err := e.prog.Body(method)
			if err != nil {
				continue
			}
			src := s.g.Taints(method)
			dst := s.g.Taints(m.Ref)
			predThis := thisLocalName(predBody)
			for _, f := range taintedFieldsOf(src, thisLocalName(curBody)) {
				dst.AddField(predThis, f)
			}
			dst.AddLocal(predThis)
			if err := s.slice(m.Ref, -1, append(path, method.SootSignature()), depth+1, false); err != nil {
				return err
			}
		}
	}
	return nil
}

// propagateToCallers continues the backward slice in every caller located
// by the Sec. IV search mechanisms, mapping parameter taints through the
// call sites.
func (s *slicer) propagateToCallers(method dex.MethodRef, body *ir.Body, taintedParams []int, thisTainted bool, path []string, depth int) error {
	e := s.engine
	sites, isEntry, err := e.findCallers(method)
	if err != nil {
		return err
	}
	if isEntry {
		s.g.MarkEntry(method)
		chain := make([]dex.MethodRef, 0, len(path)+1)
		chain = append(chain, method)
		s.g.AddChain(chain)
	}

	for _, site := range sites {
		if e.opts.EnableLoopDetection {
			looped := false
			for _, p := range path {
				if p == site.Method.SootSignature() {
					e.loops[CrossBackward]++
					looped = true
					break
				}
			}
			if looped {
				continue
			}
		}
		callerBody, err := e.prog.Body(site.Method)
		if err != nil {
			continue
		}
		fromIdx := site.UnitIndex
		if fromIdx < 0 || fromIdx >= len(callerBody.Units) {
			fromIdx = len(callerBody.Units)
		} else {
			siteUnit := s.g.AddUnit(site.Method, site.UnitIndex, callerBody.Units[site.UnitIndex])
			s.g.AddEdge(ssg.CallEdge, siteUnit, method)
			// Advanced-search chains contribute their intermediate links
			// too (paper: use the maintained call chain, not one site).
			for _, link := range site.Chain[1:] {
				linkBody, err := e.prog.Body(link.Method)
				if err != nil || link.UnitIndex >= len(linkBody.Units) {
					continue
				}
				linkUnit := s.g.AddUnit(link.Method, link.UnitIndex, linkBody.Units[link.UnitIndex])
				s.g.AddEdge(ssg.CallEdge, linkUnit, method)
			}
		}

		callerTaints := s.g.Taints(site.Method)
		for _, pi := range taintedParams {
			if site.ArgLocals != nil && pi < len(site.ArgLocals) && site.ArgLocals[pi] != nil {
				callerTaints.AddLocal(site.ArgLocals[pi].Name)
			}
		}
		if thisTainted && site.BaseLocal != nil {
			callerTaints.AddLocal(site.BaseLocal.Name)
			// this-field taints travel to the receiver object.
			for _, f := range taintedFieldsOf(s.g.Taints(method), thisLocalName(body)) {
				callerTaints.AddField(site.BaseLocal.Name, f)
			}
		}
		if err := s.slice(site.Method, fromIdx, append(path, method.SootSignature()), depth+1, false); err != nil {
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
	for _, fieldSig := range s.g.GlobalTaint.StaticFields() {
		ref, err := parseFieldSig(fieldSig)
		if err != nil {
			continue
		}
		cls := e.lookupClass(ref.Class)
		if cls == nil {
			continue
		}
		clinit := cls.FindMethod("<clinit>")
		if clinit == nil {
			continue
		}
		if err := s.slice(clinit.Ref, -1, nil, 0, true); err != nil {
			return err
		}
	}
	return nil
}

// taintedFieldsOf lists the FieldRefs tainted on the given object local.
func taintedFieldsOf(ts *ssg.TaintSet, obj string) []dex.FieldRef {
	var out []dex.FieldRef
	for _, sig := range ts.FieldSigsOf(obj) {
		if f, err := parseFieldSig(sig); err == nil {
			out = append(out, f)
		}
	}
	return out
}

// localsOfUnit lists every local a statement references, on either side.
func localsOfUnit(u ir.Unit) []*ir.Local {
	switch st := u.(type) {
	case *ir.AssignStmt:
		return append(ir.LocalsOf(st.LHS), ir.LocalsOf(st.RHS)...)
	case *ir.InvokeStmt:
		return ir.LocalsOf(st.Invoke)
	case *ir.ReturnStmt:
		if st.Val != nil {
			return ir.LocalsOf(st.Val)
		}
	case *ir.ThrowStmt:
		return ir.LocalsOf(st.Val)
	}
	return nil
}

// thisLocalName finds the local bound to @this in a body ("r0" by
// translation convention, but resolved robustly).
func thisLocalName(body *ir.Body) string {
	for _, u := range body.Units {
		if id, ok := u.(*ir.IdentityStmt); ok {
			if _, isThis := id.RHS.(*ir.ThisRef); isThis {
				return id.LHS.Name
			}
		}
	}
	return "r0"
}

// parseFieldSig parses a Soot field signature "<cls: type name>".
func parseFieldSig(sig string) (dex.FieldRef, error) {
	return dex.ParseSootFieldSignature(sig)
}
