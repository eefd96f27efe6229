package core_test

import (
	"bytes"
	"reflect"
	"testing"

	"backdroid/internal/apk"
	"backdroid/internal/appgen"
	"backdroid/internal/core"
	"backdroid/internal/service"
)

// outlierReader generates heavy-tail's 121-sink outlier (seed 20200523)
// and returns a reader that makes a fresh *apk.App of it per call.
func outlierReader(t *testing.T) func() *apk.App {
	t.Helper()
	spec := appgen.HeavyTailCorpus(appgen.HeavyTailOptions{Seed: 20200523})[0]
	gen, _, err := appgen.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	data, err := gen.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	return func() *apk.App {
		app, err := apk.ReadBytes(spec.Name, data)
		if err != nil {
			t.Fatal(err)
		}
		return app
	}
}

// span is one PhaseSpan call.
type span struct {
	phase      string
	sink       int
	start, end int64
}

// chunkRun is what one chunk engine showed: its engine, its report and
// every checkpoint and phase span it reported.
type chunkRun struct {
	e           *core.Engine
	rep         *core.Report
	checkpoints [][2]int64
	spans       []span
}

// runChunk analyzes the sink range [from, to) of app with the handle.
func runChunk(t *testing.T, app *apk.App, sh *core.Shared, from, to int) chunkRun {
	t.Helper()
	var run chunkRun
	o := core.DefaultOptions()
	o.ChunkRange = &core.ChunkRange{From: from, To: to}
	o.Shared = sh
	o.Checkpoint = func(units, delta int64) bool {
		run.checkpoints = append(run.checkpoints, [2]int64{units, delta})
		return false
	}
	o.PhaseSpan = func(phase string, sink int, start, end int64) {
		run.spans = append(run.spans, span{phase, sink, start, end})
	}
	e, err := core.New(app, o)
	if err != nil {
		t.Fatal(err)
	}
	if run.rep, err = e.Analyze(); err != nil {
		t.Fatal(err)
	}
	run.e = e
	return run
}

// requireSameChunk fails unless two chunk runs reported the same bytes,
// Stats (WallTime aside), checkpoints and phase spans.
func requireSameChunk(t *testing.T, label string, got, want chunkRun) {
	t.Helper()
	if !bytes.Equal(service.EncodeReport(got.rep), service.EncodeReport(want.rep)) {
		t.Errorf("%s: report bytes differ from a cold chunk's", label)
	}
	gs, ws := got.rep.Stats, want.rep.Stats
	gs.WallTime, ws.WallTime = 0, 0
	if !reflect.DeepEqual(gs, ws) {
		t.Errorf("%s: Stats\n%+v\nwant\n%+v", label, gs, ws)
	}
	if !reflect.DeepEqual(got.checkpoints, want.checkpoints) {
		t.Errorf("%s: %d checkpoints differ from a cold chunk's %d", label, len(got.checkpoints), len(want.checkpoints))
	}
	if !reflect.DeepEqual(got.spans, want.spans) {
		t.Errorf("%s: phase spans\n%v\nwant\n%v", label, got.spans, want.spans)
	}
}

// TestSharedChunkMatchesColdChunk: a stolen chunk that takes the victim's
// dump and index from the job's handle reports, is charged and is watched
// exactly like a cold chunk that preprocesses the app itself.
func TestSharedChunkMatchesColdChunk(t *testing.T) {
	read := outlierReader(t)
	app := read()
	sh := &core.Shared{App: app}
	victim := runChunk(t, app, sh, 0, 60)
	dump, index := core.SharedParts(sh)
	if dump == nil || index == nil || dump != core.EngineDump(victim.e) {
		t.Fatal("the first cold engine left no dump and index in the handle")
	}

	thief := runChunk(t, app, sh, 60, 121)
	if core.EngineDump(thief.e) != dump {
		t.Error("the thief rendered the app again instead of taking the handle's dump")
	}
	if d, x := core.SharedParts(sh); d != dump || x != index {
		t.Error("the thief replaced the handle's dump or index")
	}
	cold := runChunk(t, read(), nil, 60, 121)
	if len(cold.rep.Sinks) != 61 {
		t.Fatalf("cold chunk analyzed %d sinks, want 61", len(cold.rep.Sinks))
	}
	requireSameChunk(t, "shared chunk", thief, cold)
	requireSameChunk(t, "victim", victim, runChunk(t, read(), nil, 0, 60))
}

// TestSharedIgnoresOtherApp: an engine over another *apk.App — even one
// read from the same bytes — neither takes the handle's dump nor leaves
// its own there.
func TestSharedIgnoresOtherApp(t *testing.T) {
	read := outlierReader(t)
	app := read()
	sh := &core.Shared{App: app}
	owner := runChunk(t, app, sh, 0, 121)
	dump, index := core.SharedParts(sh)

	other := runChunk(t, read(), sh, 0, 121)
	if core.EngineDump(other.e) == dump {
		t.Error("an engine over another app took the handle's dump")
	}
	if d, x := core.SharedParts(sh); d != dump || x != index {
		t.Error("an engine over another app replaced the handle's dump or index")
	}
	requireSameChunk(t, "other app", other, owner)

	empty := &core.Shared{App: app}
	runChunk(t, read(), empty, 0, 121)
	if d, x := core.SharedParts(empty); d != nil || x != nil {
		t.Error("an engine over another app filled the handle")
	}
}
