package core

import (
	"backdroid/internal/dex"
	"backdroid/internal/ir"
)

// reachable determines whether the method can be reached from a valid app
// entry point by walking callers backward via bytecode search. Results are
// memoized per method — this is the "sink API call caching" of Sec. IV-F:
// several sink calls often share one (un)reachable containing method.
//
// Negative results obtained while a cycle was cut on the path are not
// cached, because the cut may hide a path through the in-progress method.
func (e *Engine) reachable(method dex.MethodRef) (bool, []dex.MethodRef, error) {
	onPath := make(map[ir.MethodID]bool)
	r, entries, _, err := e.reachableInner(method, onPath, 0)
	return r, entries, err
}

// reachableInner is one step of reachable; onPath holds the methods the
// walk came through to reach this one.
func (e *Engine) reachableInner(method dex.MethodRef, onPath map[ir.MethodID]bool, depth int) (reachable bool, entries []dex.MethodRef, pure bool, err error) {
	id := e.prog.ID(method)
	if st, ok := e.reachCache[id]; ok {
		e.rec.merge(st.frag)
		return st.reachable, st.entries, true, nil
	}
	if onPath[id] {
		// CrossBackward loop (Sec. IV-F): the backward method search
		// returned to a method already on the current path.
		if e.opts.EnableLoopDetection {
			e.loops[CrossBackward]++
		}
		return false, nil, false, nil
	}
	if depth > e.opts.MaxDepth {
		return false, nil, false, nil
	}
	e.analyzed[id] = true
	// Collect this computation's footprint fragment so cache hits can
	// replay it into later sinks' footprints.
	frame := e.rec.push()
	defer e.rec.pop()

	sites, isEntry, err := e.findCallers(method)
	if err != nil {
		return false, nil, false, err
	}
	pure = true
	seen := make(map[ir.MethodID]bool)
	if isEntry {
		entries = append(entries, method)
		seen[id] = true
	}
	onPath[id] = true
	defer delete(onPath, id)
	for _, site := range sites {
		r, subEntries, subPure, err := e.reachableInner(site.Method, onPath, depth+1)
		if err != nil {
			return false, nil, false, err
		}
		pure = pure && subPure
		if !r {
			continue
		}
		for _, en := range subEntries {
			if key := e.prog.ID(en); !seen[key] {
				seen[key] = true
				entries = append(entries, en)
			}
		}
	}
	reachable = len(entries) > 0
	if reachable || pure {
		e.reachCache[id] = &reachState{reachable: reachable, entries: entries, frag: frame}
	}
	return reachable, entries, pure, nil
}
