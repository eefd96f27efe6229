package core

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"backdroid/internal/bcsearch"
	"backdroid/internal/dex"
	"backdroid/internal/dexdump"
	"backdroid/internal/manifest"
)

// Delta analysis (DESIGN.md Sec. 10): when the engine is given the prior
// version's bundle and report, it diffs the two class manifests and
// re-uses every settled sink verdict whose recorded footprint provably
// cannot observe the update. Everything else — and
// every sink the guards cannot clear — re-runs through the normal
// pipeline. The preprocessing substrate still does the full real work
// (the dump, index and report of a delta run are bitwise identical to a
// cold run's by construction); only the charged cost follows the delta
// model.

// DeltaBase describes the prior version of the app for incremental
// re-analysis: its encoded .bdx bundle (the class manifest inside is what
// the diff consumes) and its full report, whose per-sink footprints drive
// the reuse decision. Any inconsistency — missing report, timed-out base
// run, a bundle dexdump.ReadBundle does not accept whole, an undecodable
// manifest — silently disables the delta path and the engine performs a
// full analysis.
type DeltaBase struct {
	Bundle []byte
	Report *Report
}

// Footprint records everything a sink's analysis observed of the app:
// the classes whose bytecode or metadata any step consulted, and the
// bytecode-search commands it issued (hits and misses alike). A sink
// verdict may be carried over to the next version only if no footprint
// class changed (or is hierarchy-related to a change) and no recorded
// command gains a hit in the changed spans — see planDeltaReuse for the
// full guard chain and DESIGN.md Sec. 10 for the soundness argument.
type Footprint struct {
	Classes  []string           // sorted dotted class names
	Commands []bcsearch.Command // deduplicated by Key, sorted by Key
}

// fpFrame is one footprint collection frame.
type fpFrame struct {
	classes map[string]bool
	cmds    map[string]bcsearch.Command
	last    string // the class recorded last: lookups repeat it in runs
}

// footprint freezes the frame into its exported form.
func (f *fpFrame) footprint() *Footprint {
	fp := &Footprint{Classes: make([]string, 0, len(f.classes))}
	for c := range f.classes {
		fp.Classes = append(fp.Classes, c)
	}
	sort.Strings(fp.Classes)
	keys := make([]string, 0, len(f.cmds))
	for k := range f.cmds {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fp.Commands = make([]bcsearch.Command, 0, len(keys))
	for _, k := range keys {
		fp.Commands = append(fp.Commands, f.cmds[k])
	}
	return fp
}

// fpRecorder is a stack of active footprint frames. Records go to every
// active frame, so a cache-entry fragment collected inside a sink's
// analysis lands in both the fragment and the sink's own footprint. All
// methods are safe outside any frame (e.g. the locate phase, which
// re-runs on every delta).
type fpRecorder struct {
	frames []*fpFrame
}

func (r *fpRecorder) push() *fpFrame {
	f := &fpFrame{classes: make(map[string]bool), cmds: make(map[string]bcsearch.Command)}
	r.frames = append(r.frames, f)
	return f
}

func (r *fpRecorder) pop() {
	if len(r.frames) == 0 {
		return
	}
	r.frames = r.frames[:len(r.frames)-1]
}

func (r *fpRecorder) class(name string) {
	if name == "" {
		return
	}
	for _, f := range r.frames {
		if f.last != name {
			f.classes[name] = true
			f.last = name
		}
	}
}

func (r *fpRecorder) command(c bcsearch.Command) {
	key := c.Key()
	for _, f := range r.frames {
		f.cmds[key] = c
	}
}

// merge replays a stored fragment into every active frame — the
// cache-hit counterpart of recording the computation itself.
func (r *fpRecorder) merge(f *fpFrame) {
	if len(r.frames) == 0 {
		return
	}
	for c := range f.classes {
		r.class(c)
	}
	for _, cmd := range f.cmds {
		r.command(cmd)
	}
}

// lookupMethod resolves a method against the merged dex, recording the
// declaring class in the active footprint frames first: whether the
// method exists (contained vs. framework/missing) steers slicing and
// caller search, so the answer must be pinned to the class's content.
func (e *Engine) lookupMethod(ref dex.MethodRef) *dex.Method {
	e.rec.class(ref.Class)
	return e.dexf.Method(ref)
}

// lookupClass resolves a class against the merged dex, recording it.
func (e *Engine) lookupClass(name string) *dex.Class {
	e.rec.class(name)
	return e.dexf.Class(name)
}

// classOfLine maps a dump line to its containing class span.
func classOfLine(t *dexdump.Text, line int) (string, bool) {
	spans := t.ClassSpans()
	i := sort.Search(len(spans), func(i int) bool { return spans[i].End > line })
	if i < len(spans) && spans[i].Start <= line && line < spans[i].End {
		return spans[i].Name, true
	}
	return "", false
}

// registeredComponents renders the manifest's registration surface in a
// stable, comparable form: one line per component carrying everything
// the lifecycle and ICC searches consult (kind, class, exported flag,
// filter actions). Recorded on every report so a later delta run can
// verify the registration of unchanged classes did not move.
func registeredComponents(m *manifest.Manifest) []string {
	out := make([]string, 0, len(m.Components))
	for _, c := range m.Components {
		var actions []string
		for _, f := range c.Filters {
			actions = append(actions, f.Actions...)
		}
		out = append(out, fmt.Sprintf("%s %s exported=%t actions=%s",
			c.Kind, c.Name, c.Exported, strings.Join(actions, ",")))
	}
	sort.Strings(out)
	return out
}

// componentClassOf extracts the class name back out of a
// registeredComponents entry.
func componentClassOf(entry string) string {
	fields := strings.Fields(entry)
	if len(fields) < 2 {
		return ""
	}
	return fields[1]
}

// sinkKey identifies a sink call site: the sink API, the containing
// method and the call-site unit index. The delta path matches a new
// version's calls to the base report by it, and MergeReports dedups
// overlapping chunk parts by it. Dump line numbers are deliberately
// excluded — unchanged classes shift lines when an update grows or
// shrinks earlier classes. Within one run locateSinkCalls already keeps
// one call per caller and unit, so the sink API only matters across
// versions: a call site whose sink changed never reuses the old verdict.
// The key crosses engines, so it spells the refs out rather than using
// per-job method IDs; each field is length-prefixed, so two different
// call sites never share a key (Soot signatures can collide).
func sinkKey(call SinkCall) string {
	b := appendRefKey(nil, call.Sink.Method)
	b = appendRefKey(b, call.Caller)
	return string(strconv.AppendInt(b, int64(call.UnitIndex), 10))
}

// appendRefKey appends an unambiguous encoding of the ref to b.
func appendRefKey(b []byte, m dex.MethodRef) []byte {
	field := func(b []byte, s string) []byte {
		b = strconv.AppendInt(b, int64(len(s)), 10)
		return append(append(b, ':'), s...)
	}
	b = field(b, m.Class)
	b = field(b, m.Name)
	b = field(b, string(m.Ret))
	b = strconv.AppendInt(b, int64(len(m.Params)), 10)
	b = append(b, ';')
	for _, p := range m.Params {
		b = field(b, string(p))
	}
	return b
}

// planDeltaReuse decides, for every freshly located sink call, whether
// the prior version's verdict can be carried over. Returns a map from
// call index to the ready-made report; calls absent from the map re-run
// the full pipeline. The guards, in order:
//
//  1. eligibility: a manifest diff exists and the base run is trusted;
//     any removed class disables reuse entirely (a removed class may
//     have contributed hierarchy-variant searches that cannot be
//     re-checked without the old hierarchy);
//  2. registration: the manifest registration surface of non-added
//     classes must be identical — registration steers entry-point and
//     ICC decisions without touching bytecode;
//  3. footprint intersection: no class the sink's analysis consulted may
//     be changed or added;
//  4. hierarchy: no changed/added class may be a sub- or supertype of a
//     footprint class — subclass variant sets and component-kind walks
//     reach across class boundaries;
//  5. replay: every recorded search command is probed against a partial
//     index over just the changed and added spans; a command that gains
//     a hit there invalidates every sink that recorded it (hits that
//     disappear need no probe: they lived in footprint classes, which
//     guard 3 proved unchanged).
func (e *Engine) planDeltaReuse(calls []SinkCall) (map[int]*SinkReport, error) {
	d := e.deltaDiff
	if d == nil || e.deltaOldReport == nil || len(d.Removed) > 0 {
		return nil, nil
	}

	// Guard 2: registration surface of non-added classes.
	addedSet := make(map[string]bool, len(d.Added))
	for _, c := range d.Added {
		addedSet[c] = true
	}
	oldReg := make(map[string]bool, len(e.deltaOldReport.Registered))
	for _, r := range e.deltaOldReport.Registered {
		oldReg[r] = true
	}
	for _, r := range registeredComponents(e.app.Manifest) {
		if oldReg[r] {
			delete(oldReg, r)
			continue
		}
		if !addedSet[componentClassOf(r)] {
			return nil, nil
		}
	}
	for r := range oldReg {
		if !addedSet[componentClassOf(r)] {
			return nil, nil
		}
	}

	old := make(map[string]*SinkReport, len(e.deltaOldReport.Sinks))
	for _, sr := range e.deltaOldReport.Sinks {
		if sr.Footprint != nil {
			old[sinkKey(sr.Call)] = sr
		}
	}
	if len(old) == 0 {
		return nil, nil
	}

	touched := d.Touched()
	dirty := make([]string, 0, len(d.Changed)+len(d.Added))
	dirty = append(dirty, d.Changed...)
	dirty = append(dirty, d.Added...)

	// Guards 3 and 4 per sink.
	var cand []int
	for i, call := range calls {
		osr := old[sinkKey(call)]
		if osr == nil {
			continue
		}
		ok := true
		for _, cls := range osr.Footprint.Classes {
			if touched[cls] {
				ok = false
				break
			}
		}
		if ok {
			for _, dc := range dirty {
				for _, cls := range osr.Footprint.Classes {
					if e.hier.IsSubclassOf(dc, cls) || e.hier.IsSubclassOf(cls, dc) {
						ok = false
						break
					}
				}
				if !ok {
					break
				}
			}
		}
		if ok {
			cand = append(cand, i)
		}
	}
	if len(cand) == 0 {
		return nil, nil
	}

	// Guard 5: replay the recorded commands against the dirty spans.
	// The probe index is a real (and really charged) partial build over
	// just the changed and added class spans; each command then costs a
	// hash probe, charged at the map-probe rate of the manifest diff.
	dirtyLines := e.deltaNewMan.LinesOf(touched)
	if err := e.meter.ChargeIndexBuild(dirtyLines); err != nil {
		return nil, err
	}
	pidx := dexdump.BuildPartialIndex(e.dump, touched)
	cmds := make(map[string]bcsearch.Command)
	for _, i := range cand {
		for _, c := range old[sinkKey(calls[i])].Footprint.Commands {
			cmds[c.Key()] = c
		}
	}
	if err := e.meter.ChargeManifestDiff(len(cmds)); err != nil {
		return nil, err
	}
	hit := make(map[string]bool)
	for key, c := range cmds {
		for _, n := range bcsearch.LookupCandidates(pidx, c) {
			if int(n) < e.dump.LineCount() && c.Match(e.dump.Line(int(n))) {
				hit[key] = true
				break
			}
		}
	}

	reuse := make(map[int]*SinkReport)
	union := make(map[string]bool)
	for _, i := range cand {
		osr := old[sinkKey(calls[i])]
		invalid := false
		for _, c := range osr.Footprint.Commands {
			if hit[c.Key()] {
				invalid = true
				break
			}
		}
		if invalid {
			continue
		}
		reuse[i] = reuseSinkReport(calls[i], osr)
		for _, cls := range osr.Footprint.Classes {
			union[cls] = true
		}
	}
	if len(reuse) == 0 {
		return nil, nil
	}
	// Carrying settled verdicts over is one verification pass across the
	// union of their footprints, charged at the cheap delta-reuse rate.
	reused := e.deltaNewMan.LinesOf(union)
	if err := e.meter.ChargeDeltaReuse(reused); err != nil {
		return nil, err
	}
	e.deltaReusedLines = int64(reused)
	return reuse, nil
}

// reuseSinkReport carries a settled verdict over to the new version: the
// freshly located call site (line numbers may have shifted) with the old
// run's analysis outcome and footprint.
func reuseSinkReport(call SinkCall, old *SinkReport) *SinkReport {
	return &SinkReport{
		Call:      call,
		Reachable: old.Reachable,
		Cached:    old.Cached,
		Entries:   append([]dex.MethodRef(nil), old.Entries...),
		Values:    append([]string(nil), old.Values...),
		Insecure:  old.Insecure,
		SSG:       old.SSG,
		Reused:    true,
		Footprint: old.Footprint,
	}
}
