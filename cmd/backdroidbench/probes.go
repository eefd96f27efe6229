package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"backdroid/internal/apk"
	"backdroid/internal/bcsearch"
	"backdroid/internal/core"
	"backdroid/internal/dex"
	"backdroid/internal/dexdump"
	"backdroid/internal/ir"
	"backdroid/internal/service"
	"backdroid/internal/service/journal"
	"backdroid/internal/simtime"
)

// probeInput is one distinct input prepared for the layer probes.
type probeInput struct {
	v       *version
	app     *apk.App
	merged  *dex.File
	methods []*dex.Method // the methods of merged that carry bytecode
	dexes   [][]byte
	text    *dexdump.Text
	index   *dexdump.Index
	fp      uint64
	bundle  []byte
	report  *core.Report
	search  *bcsearch.Engine
	cmds    []bcsearch.Command
}

func prepareProbe(v *version) (*probeInput, error) {
	app, err := apk.ReadBytes(v.name, v.data)
	if err != nil {
		return nil, err
	}
	merged, err := app.MergedDex()
	if err != nil {
		return nil, err
	}
	in := &probeInput{v: v, app: app, merged: merged, fp: dexdump.AppFingerprint(app.Dexes)}
	for _, c := range merged.Classes() {
		for _, m := range c.Methods {
			if len(m.Code) > 0 {
				in.methods = append(in.methods, m)
			}
		}
	}
	for _, d := range app.Dexes {
		in.dexes = append(in.dexes, dex.Encode(d))
	}
	in.text = dexdump.Disassemble(merged)
	in.index = dexdump.BuildIndex(in.text)
	if in.bundle, err = dexdump.EncodeBundle(in.text, in.index, in.fp, nil); err != nil {
		return nil, err
	}
	if in.report, err = service.DecodeReport(v.ref); err != nil {
		return nil, err
	}
	in.search = bcsearch.New(in.text, simtime.NewMeter(), false)
	for _, m := range in.text.Methods() {
		in.cmds = append(in.cmds, bcsearch.InvokeCommand(m))
	}
	if len(in.cmds) > 0 {
		// The first command builds the index; the probe times lookups.
		if _, err := in.search.Run(in.cmds[0]); err != nil {
			return nil, err
		}
	}
	return in, nil
}

// probe calls one public entry point directly on every distinct input.
// A pass performs ops operations; the probe runs reps passes at the
// default 10 -seconds, scaled with -seconds, so the work never depends
// on elapsed time.
type probe struct {
	name string
	reps int
	ops  int
	pass func() error
}

// probes builds the layer probes over the prepared inputs; j and s are
// the journal and scheduler the control-plane probes use. Each probe
// should move the end-to-end metric noted beside it.
func probes(ins []*probeInput, j *journal.Journal, s *service.Scheduler) []probe {
	count := func(f func(*probeInput) int) int {
		n := 0
		for _, in := range ins {
			n += f(in)
		}
		return n
	}
	each := func(f func(*probeInput) error) func() error {
		return func() error {
			for _, in := range ins {
				if err := f(in); err != nil {
					return fmt.Errorf("%s: %w", in.v.name, err)
				}
			}
			return nil
		}
	}
	one := func(*probeInput) int { return 1 }
	opts := core.DefaultOptions()
	optFP := service.OptionsFingerprint(&opts)

	return []probe{
		// cold-corpus apps_per_s
		{"dex.decode", 10, count(func(in *probeInput) int { return len(in.dexes) }), each(func(in *probeInput) error {
			for _, b := range in.dexes {
				if _, err := dex.Decode(b); err != nil {
					return err
				}
			}
			return nil
		})},
		{"ir.translate", 5, count(func(in *probeInput) int { return len(in.methods) }), each(func(in *probeInput) error {
			for _, m := range in.methods {
				// Generated corrupt methods fail translation by design;
				// the failure is part of the measured work.
				_, _ = ir.Translate(m)
			}
			return nil
		})},
		{"dexdump.disassemble", 3, count(one), each(func(in *probeInput) error {
			dexdump.Disassemble(in.merged)
			return nil
		})},
		{"dexdump.index-build", 3, count(one), each(func(in *probeInput) error {
			dexdump.BuildIndex(in.text)
			return nil
		})},
		// warm-resubmit job_p50_ms
		{"dexdump.bundle-encode", 5, count(one), each(func(in *probeInput) error {
			_, err := dexdump.EncodeBundle(in.text, in.index, in.fp, nil)
			return err
		})},
		{"dexdump.bundle-decode", 5, count(one), each(func(in *probeInput) error {
			t, err := dexdump.DecodeBundleDump(in.bundle, in.fp)
			if err != nil {
				return err
			}
			_, err = dexdump.DecodeIndexFile(in.bundle, t)
			return err
		})},
		// warm-resubmit apps_per_s
		{"bcsearch.search", 2, count(func(in *probeInput) int { return len(in.cmds) }), each(func(in *probeInput) error {
			for _, c := range in.cmds {
				if _, err := in.search.Run(c); err != nil {
					return err
				}
			}
			return nil
		})},
		// update-stream job_p50_ms
		{"service.report-encode", 200, count(one), each(func(in *probeInput) error {
			service.EncodeReport(in.report)
			return nil
		})},
		{"service.report-decode", 200, count(one), each(func(in *probeInput) error {
			_, err := service.DecodeReport(in.v.ref)
			return err
		})},
		{"journal.append", 50, count(one), each(func(in *probeInput) error {
			return j.Append(journal.Record{Kind: journal.KindReport, App: in.fp, Opt: optFP, Data: in.v.ref})
		})},
		{"service.dispatch", 50, count(one), each(func(in *probeInput) error {
			app := in.app
			id, err := s.Submit(service.Job{Name: in.v.name, Source: func() (*apk.App, error) { return app, nil }})
			if err != nil {
				return err
			}
			_, err = s.Wait(id)
			return err
		})},
	}
}

// runProbes runs every probe and returns its ns, heap bytes and heap
// allocations per operation as metrics.
func runProbes(vs []*version, workdir string, seconds float64) (_ map[string]metric, err error) {
	ins := make([]*probeInput, len(vs))
	for i, v := range vs {
		in, err := prepareProbe(v)
		if err != nil {
			return nil, fmt.Errorf("probe input %s: %w", v.name, err)
		}
		ins[i] = in
	}
	dir, err := os.MkdirTemp(workdir, "probe-journal-")
	if err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	defer os.RemoveAll(dir)
	j, _, err := journal.Open(dir)
	if err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	defer func() {
		if cerr := j.Close(); cerr != nil {
			err = errors.Join(err, fmt.Errorf("probes: %w", cerr))
		}
	}()
	s := service.New(service.Config{Workers: workers})
	defer s.Close()

	m := make(map[string]metric)
	for _, p := range probes(ins, j, s) {
		reps := max(1, int(math.Round(float64(p.reps)*seconds/10)))
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		for r := 0; r < reps; r++ {
			if err := p.pass(); err != nil {
				return nil, fmt.Errorf("probe %s: %w", p.name, err)
			}
		}
		d := time.Since(t0)
		runtime.ReadMemStats(&m1)
		n := float64(reps * p.ops)
		m[p.name+".ns_per_op"] = metric{float64(d.Nanoseconds()) / n, "ns"}
		m[p.name+".bytes_per_op"] = metric{float64(m1.TotalAlloc-m0.TotalAlloc) / n, "bytes"}
		m[p.name+".allocs_per_op"] = metric{float64(m1.Mallocs-m0.Mallocs) / n, "count"}
	}
	return m, nil
}
