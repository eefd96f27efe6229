package main

import (
	"bytes"
	"errors"
	"fmt"

	"backdroid/internal/appgen"
	"backdroid/internal/core"
	"backdroid/internal/service"
)

// canonical is the report's settled encoding with the Reused provenance
// flag cleared: a delta run (and the settled hits that replay it) marks
// carried-over verdicts as reused, which is the only way its detection
// surface may differ from a cold run's.
func canonical(r *core.Report) []byte {
	c := *r
	c.Sinks = make([]*core.SinkReport, len(r.Sinks))
	for i, s := range r.Sinks {
		cs := *s
		cs.Reused = false
		c.Sinks[i] = &cs
	}
	return service.EncodeReport(&c)
}

// detection is a confusion count of reported verdicts against ground
// truth.
type detection struct{ tp, fp, fn int }

func (d *detection) add(o detection) { d.tp += o.tp; d.fp += o.fp; d.fn += o.fn }

// score matches a report against the app's ground truth. A truth sink is
// detected when a report sink in the same method is Reachable and
// Insecure. Every false positive is an error; the only tolerated false
// negative is a subclassed-sink flow, the miss the paper documents for
// BackDroid's default configuration (Sec. VI-C).
func score(r *core.Report, truth *appgen.GroundTruth) (detection, error) {
	var d detection
	var errs []error
	for _, t := range truth.Sinks {
		found := false
		for _, s := range r.Sinks {
			if s.Call.Caller.Class == t.Class && s.Call.Caller.Name == t.Method && s.Reachable && s.Insecure {
				found = true
				break
			}
		}
		switch {
		case t.Insecure && found:
			d.tp++
		case t.Insecure:
			d.fn++
			if t.Spec.Flow != appgen.FlowSubclassSink {
				errs = append(errs, fmt.Errorf("missed %s sink in %s.%s", t.Spec.Flow, t.Class, t.Method))
			}
		case found:
			d.fp++
			errs = append(errs, fmt.Errorf("false positive %s sink in %s.%s", t.Spec.Flow, t.Class, t.Method))
		}
	}
	return d, errors.Join(errs...)
}

// check verifies one job's report: its verdicts against the version's
// ground truth and its canonical encoding against the reference cold run
// made during setup.
func check(r *core.Report, v *version) error {
	if r == nil {
		return fmt.Errorf("%s: no BackDroid report", v.name)
	}
	if _, err := score(r, v.truth); err != nil {
		return fmt.Errorf("%s: %w", v.name, err)
	}
	if !bytes.Equal(canonical(r), v.ref) {
		return fmt.Errorf("%s: report differs from the reference cold run", v.name)
	}
	return nil
}
