package core

import (
	"backdroid/internal/android"
	"backdroid/internal/bcsearch"
	"backdroid/internal/dex"
	"backdroid/internal/ir"
)

// chainLink is one step of an advanced-search call chain (paper Sec. IV-B:
// "we need to maintain and return a call chain").
type chainLink struct {
	Method    dex.MethodRef
	UnitIndex int
}

// callerSite is one located caller of a callee method: the caller method,
// the call-site unit, and how the callee's this/params map into the
// caller's locals so backward taint can continue.
type callerSite struct {
	Method    dex.MethodRef
	UnitIndex int

	// BaseLocal is the receiver local at the call site (basic search) or
	// the constructed object local at the constructor site (advanced
	// search). Nil for static callees and ICC/clinit sites.
	BaseLocal *ir.Local
	// ArgLocals are the caller locals passed as the callee's declared
	// parameters; nil when parameter mapping is unavailable (advanced
	// search, ICC, clinit).
	ArgLocals []*ir.Local

	// Chain is the advanced-search call chain from the constructor site
	// to the ending method; empty for basic-search sites.
	Chain []chainLink

	// ViaICC marks sites found by the two-time ICC search.
	ViaICC bool
	// ViaClassUse marks pseudo-callers from the recursive <clinit>
	// class-use search (reachability only).
	ViaClassUse bool
}

// findCallers locates the callers of the callee method (paper Sec. IV),
// dispatching to the appropriate search mechanism. isEntry reports that
// the method is itself a valid entry point (a lifecycle handler of a
// manifest-registered component), in which case the Android framework is
// the caller.
func (e *Engine) findCallers(callee dex.MethodRef) (sites []callerSite, isEntry bool, err error) {
	id := e.prog.ID(callee)
	if cached, ok := e.callerCache[id]; ok {
		e.rec.merge(e.callerFrag[id])
		return cached, e.entryCache[id], nil
	}

	frame := e.rec.push()
	// The callee class itself steers the search dispatch (component
	// kind, registration, direct vs. virtual) before any body lookup.
	e.rec.class(callee.Class)
	sites, isEntry, err = e.findCallersUncached(callee)
	e.rec.pop()
	if err != nil {
		return nil, false, err
	}
	e.callerCache[id] = sites
	e.entryCache[id] = isEntry
	e.callerFrag[id] = frame
	return sites, isEntry, nil
}

func (e *Engine) findCallersUncached(callee dex.MethodRef) ([]callerSite, bool, error) {
	// Special search: static initializers (Sec. IV-C). <clinit> is never
	// invoked by bytecode; its "callers" are the methods using the class,
	// searched recursively through the normal reachability machinery.
	if callee.IsStaticInitializer() {
		sites, err := e.classUseCallers(callee.Class)
		return sites, false, err
	}

	var sites []callerSite
	isEntry := false

	// Special search: Android lifecycle handlers (Sec. IV-E).
	if kind, isComp := e.hier.ComponentKind(callee.Class); isComp &&
		android.IsLifecycleMethod(kind, callee.Name) {
		if e.app.Manifest.IsRegistered(callee.Class) {
			isEntry = true
			// Also connect ICC senders (Sec. IV-D) so cross-component
			// chains appear in the SSG.
			for _, entryName := range android.ICCEntryMethods(kind) {
				if entryName != callee.Name {
					continue
				}
				iccSites, err := e.iccSearch(callee.Class, kind)
				if err != nil {
					return nil, false, err
				}
				sites = append(sites, iccSites...)
			}
		}
		// Unregistered components are never started by the framework or
		// by ICC: no callers. This is exactly where Amandroid's
		// all-components entry assumption produces false positives.
		return sites, isEntry, nil
	}

	m := e.lookupMethod(callee)
	if m == nil {
		return nil, false, nil // framework or missing method: nothing to search
	}

	// Basic signature based search (Sec. IV-A) covers direct methods
	// outright and is always attempted for virtual ones too.
	variants := []dex.MethodRef{callee}
	if !m.IsDirect() {
		// Child classes that do not override the method may receive the
		// call under their own signature (Sec. IV-A "searching over a
		// child class").
		for _, child := range e.hier.Subclasses(callee.Class) {
			if !e.hier.Overrides(child, callee.Name, callee.Params) {
				variants = append(variants, callee.WithClass(child))
			}
		}
	}
	for _, variant := range variants {
		hits, err := e.search.FindInvocations(variant)
		if err != nil {
			return nil, false, err
		}
		resolved, err := e.resolveBasicSites(hits, variant)
		if err != nil {
			return nil, false, err
		}
		sites = append(sites, resolved...)
	}

	if m.IsDirect() {
		return sites, false, nil
	}

	// Advanced search (Sec. IV-B): needed when callers may hold the
	// object under a supertype — super classes, interfaces, callbacks and
	// asynchronous flows. The indicator type guides the ending-method
	// detection.
	var indicators []string
	if owner, _, found := e.hier.SuperDeclaring(callee.Class, callee.Name, callee.Params); found {
		indicators = append(indicators, owner)
	}
	if base, ok := e.hier.AsyncCallbackBase(callee.Class); ok {
		for _, cb := range android.AsyncCallbackMethods(base) {
			if cb == callee.Name {
				indicators = append(indicators, base)
				break
			}
		}
	}
	for _, indicator := range indicators {
		adv, err := e.advancedSearch(callee, indicator)
		if err != nil {
			return nil, false, err
		}
		sites = append(sites, adv...)
	}

	return e.dedupSites(sites), false, nil
}

// resolveBasicSites converts search hits into caller sites with precise
// call-site units and argument locals (paper Fig. 3 steps 3-4: translate
// format, locate the method body via the program analysis, then forward
// find the call site).
func (e *Engine) resolveBasicSites(hits []bcsearch.Hit, callee dex.MethodRef) ([]callerSite, error) {
	var out []callerSite
	for _, hit := range hits {
		if hit.Method.Name == "" {
			continue
		}
		body, err := e.prog.Body(hit.Method)
		if err != nil {
			continue // transformation failure: skip this caller
		}
		if err := e.meter.Charge(int64(len(body.Units))); err != nil {
			return nil, err
		}
		for _, idx := range e.findCallSites(body, callee) {
			inv := ir.InvokeOf(body.Units[idx])
			site := callerSite{Method: hit.Method, UnitIndex: idx, BaseLocal: inv.Base}
			for _, a := range inv.Args {
				if l, ok := a.(*ir.Local); ok {
					site.ArgLocals = append(site.ArgLocals, l)
				} else {
					site.ArgLocals = append(site.ArgLocals, nil)
				}
			}
			out = append(out, site)
		}
	}
	return out, nil
}

// classUseCallers implements the recursive <clinit> search primitive:
// every method referencing the class is a pseudo-caller, so reachability
// recursion terminates at entry components exactly as Sec. IV-C describes.
func (e *Engine) classUseCallers(class string) ([]callerSite, error) {
	hits, err := e.search.FindClassUses(class)
	if err != nil {
		return nil, err
	}
	// Each containing method once, in dump order.
	seen := make(map[ir.MethodID]bool, len(hits))
	var out []callerSite
	for _, h := range hits {
		m := h.Method
		if m.Name == "" || m.Class == class {
			continue // uses inside the class itself do not load it from outside
		}
		if id := e.prog.ID(m); !seen[id] {
			seen[id] = true
			out = append(out, callerSite{Method: m, UnitIndex: -1, ViaClassUse: true})
		}
	}
	return out, nil
}

// siteKey identifies a statement: its method and its index in the body.
type siteKey struct {
	method ir.MethodID
	index  int
}

// dedupSites drops repeated call sites, keeping the first of each.
func (e *Engine) dedupSites(sites []callerSite) []callerSite {
	seen := make(map[siteKey]bool, len(sites))
	var out []callerSite
	for _, s := range sites {
		key := siteKey{e.prog.ID(s.Method), s.UnitIndex}
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, s)
	}
	return out
}
