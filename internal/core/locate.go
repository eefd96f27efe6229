package core

import (
	"sort"

	"backdroid/internal/android"
	"backdroid/internal/bcsearch"
	"backdroid/internal/dex"
	"backdroid/internal/ir"
)

// locateSinkCalls performs the initial bytecode search that seeds the whole
// analysis (paper Sec. III step 2: "immediately locates the target sink API
// calls by performing a text search of bytecode plaintext").
func (e *Engine) locateSinkCalls() ([]SinkCall, error) {
	var calls []SinkCall
	seen := make(map[siteKey]bool)

	record := func(sink android.Sink, hits []bcsearch.Hit, calleeClass string) error {
		for _, hit := range hits {
			if hit.Method.Name == "" {
				continue
			}
			caller := e.prog.ID(hit.Method)
			body, err := e.prog.BodyOf(caller)
			if err != nil {
				// Bytecode-to-IR transformation failure for this method:
				// skip the site, as the prototype does.
				continue
			}
			for _, idx := range e.findCallSites(body, sink.Method.WithClass(calleeClass)) {
				key := siteKey{caller, idx}
				if seen[key] {
					continue
				}
				seen[key] = true
				calls = append(calls, SinkCall{
					Sink:      sink,
					Caller:    hit.Method,
					UnitIndex: idx,
					Line:      hit.Line,
				})
			}
		}
		return nil
	}

	for _, sink := range e.opts.Sinks {
		hits, err := e.search.FindInvocations(sink.Method)
		if err != nil {
			return nil, err
		}
		if err := record(sink, hits, sink.Method.Class); err != nil {
			return nil, err
		}

		if !e.opts.ResolveSinkSubclasses {
			continue
		}
		// Class-hierarchy-aware initial search: app classes extending the
		// sink's system class re-expose the sink under their own
		// signature (the paper's two false negatives; Sec. VI-C).
		for _, sub := range e.hier.Subclasses(sink.Method.Class) {
			subHits, err := e.search.FindInvocations(sink.Method.WithClass(sub))
			if err != nil {
				return nil, err
			}
			if err := record(sink, subHits, sub); err != nil {
				return nil, err
			}
		}
	}

	// Deterministic processing order: dump line, then unit index.
	sort.Slice(calls, func(i, j int) bool {
		if calls[i].Line != calls[j].Line {
			return calls[i].Line < calls[j].Line
		}
		return calls[i].UnitIndex < calls[j].UnitIndex
	})
	return calls, nil
}

// findCallSites returns the unit indexes in the body whose invoke matches
// the callee reference exactly.
func (e *Engine) findCallSites(body *ir.Body, callee dex.MethodRef) []int {
	var out []int
	for i, u := range body.Units {
		if inv := ir.InvokeOf(u); inv != nil && inv.Method.Equal(callee) {
			out = append(out, i)
		}
	}
	return out
}
