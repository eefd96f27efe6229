package core

import (
	"backdroid/internal/android"
	"backdroid/internal/bcsearch"
	"backdroid/internal/ir"
	"backdroid/internal/manifest"
)

// iccCallNamesFor returns the system ICC call names that start components
// of the given kind.
func iccCallNamesFor(kind manifest.ComponentKind) []string {
	switch kind {
	case manifest.Activity:
		return []string{"startActivity", "startActivityForResult"}
	case manifest.Service:
		return []string{"startService", "bindService"}
	case manifest.Receiver:
		return []string{"sendBroadcast", "sendOrderedBroadcast"}
	}
	return nil
}

// iccSearch implements the two-time ICC search of paper Sec. IV-D. ICC is
// unlike normal calls: the callee is picked at runtime from the Intent
// parameter. So BackDroid launches two searches — one for the ICC calls
// themselves, one for the Intent parameters (const-class of the target
// component for explicit ICC, const-string of a filter action for implicit
// ICC) — and merges them: an ICC call satisfying both is the caller.
func (e *Engine) iccSearch(component string, kind manifest.ComponentKind) ([]callerSite, error) {
	// First search: ICC call sites of the matching kind. The name-prefix
	// command is indexable, so on the indexed backends this pass resolves
	// from invoke-name postings instead of the raw O(lines) substring scan
	// it used to be.
	var callHits []bcsearch.Hit
	for _, name := range iccCallNamesFor(kind) {
		hits, err := e.search.FindInvocationsOfNamePrefix(name)
		if err != nil {
			return nil, err
		}
		for _, h := range hits {
			if h.Method.Name != "" {
				callHits = append(callHits, h)
			}
		}
	}
	if len(callHits) == 0 {
		return nil, nil
	}

	// Second search: Intent parameters naming this component.
	paramMethods := make(map[ir.MethodID]bool)
	classHits, err := e.search.FindConstClass(component)
	if err != nil {
		return nil, err
	}
	for _, h := range classHits {
		if h.Method.Name != "" {
			paramMethods[e.prog.ID(h.Method)] = true
		}
	}
	if comp := e.app.Manifest.Component(component); comp != nil {
		for _, f := range comp.Filters {
			for _, action := range f.Actions {
				actionHits, err := e.search.FindConstString(action)
				if err != nil {
					return nil, err
				}
				for _, h := range actionHits {
					if h.Method.Name != "" {
						paramMethods[e.prog.ID(h.Method)] = true
					}
				}
			}
		}
	}

	// Merge: keep ICC calls whose containing method also sets a matching
	// Intent parameter.
	var sites []callerSite
	seen := make(map[ir.MethodID]bool)
	for _, h := range callHits {
		id := e.prog.ID(h.Method)
		if !paramMethods[id] || seen[id] {
			continue
		}
		seen[id] = true
		body, err := e.prog.BodyOf(id)
		if err != nil {
			continue
		}
		idx := e.findICCCallUnit(body, kind)
		sites = append(sites, callerSite{Method: h.Method, UnitIndex: idx, ViaICC: true})
	}
	return sites, nil
}

// findICCCallUnit locates the ICC invoke unit in a body; -1 when absent
// (should not happen for merged hits).
func (e *Engine) findICCCallUnit(body *ir.Body, kind manifest.ComponentKind) int {
	for i, u := range body.Units {
		inv := ir.InvokeOf(u)
		if inv == nil {
			continue
		}
		if k, ok := android.ICCTargetKind(inv.Method); ok && k == kind {
			return i
		}
	}
	return -1
}
