package core

import (
	"runtime"
	"testing"

	"backdroid/internal/android"
	"backdroid/internal/apk"
	"backdroid/internal/constprop"
	"backdroid/internal/dex"
	"backdroid/internal/manifest"
	"backdroid/internal/ssg"
)

// wideRegisterApp builds an app whose Worker.crypt passes its parameter
// to four sink calls through a field of a fresh holder object, using
// five registers; regs > 0 makes the method declare that many instead.
func wideRegisterApp(t *testing.T, regs int) *apk.App {
	t.Helper()
	const pkg = "com.wide.app"
	objInit := dex.NewMethodRef("java.lang.Object", "<init>", dex.Void)
	activInit := dex.NewMethodRef("android.app.Activity", "<init>", dex.Void)
	crypt := dex.NewMethodRef(pkg+".Worker", "crypt", dex.Void, dex.StringT)
	mode := dex.NewFieldRef(pkg+".Holder", "mode", dex.StringT)

	holder := dex.NewClass(pkg+".Holder").Field("mode", dex.StringT)
	hc := holder.Constructor()
	hc.InvokeDirect(objInit, hc.This()).ReturnVoid().Done()

	worker := dex.NewClass(pkg + ".Worker")
	mb := worker.StaticMethod("crypt", dex.Void, dex.StringT)
	p, h, s, c := mb.Param(0), mb.Reg(), mb.Reg(), mb.Reg()
	mb.New(h, pkg+".Holder").InvokeDirect(hc.Ref(), h).IPut(p, h, mode)
	for range 4 {
		mb.IGet(s, h, mode).InvokeStatic(android.CipherGetInstance, s).MoveResult(c)
	}
	mb.ReturnVoid().Done()

	main := dex.NewClass(pkg + ".MainActivity").Extends(android.ActivityClass)
	mc := main.Constructor()
	mc.InvokeDirect(activInit, mc.This()).ReturnVoid().Done()
	oc := main.Method("onCreate", dex.Void, dex.T(android.BundleClass))
	r := oc.Reg()
	oc.ConstString(r, "AES/ECB/PKCS5Padding").InvokeStatic(crypt, r).ReturnVoid().Done()

	built := worker.Build()
	if regs > 0 {
		built.FindMethod("crypt", dex.StringT).Registers = regs
	}
	f := dex.NewFile()
	for _, c := range []*dex.Class{holder.Build(), built, main.Build()} {
		if err := f.AddClass(c); err != nil {
			t.Fatal(err)
		}
	}
	m := manifest.New(pkg)
	m.Add(manifest.Activity, pkg+".MainActivity")
	return apk.New(pkg, m, f)
}

// sliceBytes locates the app's sink calls, slices and propagates each
// once to translate every body it reaches, and returns the bytes one
// more pass over all of them allocates, with the pass's reports.
func sliceBytes(t *testing.T, app *apk.App) (uint64, []string) {
	t.Helper()
	e, err := New(app, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	calls, err := e.locateSinkCalls()
	if err != nil || len(calls) != 4 {
		t.Fatalf("located %d sink calls (%v), want 4", len(calls), err)
	}
	graphs := make([]*ssg.Graph, len(calls))
	values := make([][]constprop.Value, len(calls))
	pass := func() {
		for i, call := range calls {
			sr, err := e.prepareSinkCall(call)
			if err != nil || !sr.Reachable {
				t.Fatalf("sink %v: reachable %v, %v", call, sr != nil && sr.Reachable, err)
			}
			graphs[i] = sr.SSG
			if values[i], err = e.propagate(sr.SSG, call); err != nil {
				t.Fatal(err)
			}
		}
	}
	pass()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	pass()
	runtime.ReadMemStats(&after)
	var out []string
	for i, g := range graphs {
		out = append(out, g.String())
		for _, v := range values[i] {
			out = append(out, v.String())
		}
	}
	return after.TotalAlloc - before.TotalAlloc, out
}

// TestWideRegisterFileSlice slices a method that declares the most
// registers a body can have (65,535) and uses five of them. Taint sets
// and forward-pass environments grow to the highest register a slice
// touches, so slicing it must allocate what slicing the same method
// declaring five registers does: a taint set or environment sized by the
// register file would add at least 8 KiB per sink.
func TestWideRegisterFileSlice(t *testing.T) {
	narrow, narrowOut := sliceBytes(t, wideRegisterApp(t, 0))
	wide, wideOut := sliceBytes(t, wideRegisterApp(t, maxTestRegisters))
	if len(narrowOut) != len(wideOut) {
		t.Fatalf("wide run reported %d lines, narrow %d", len(wideOut), len(narrowOut))
	}
	for i := range narrowOut {
		if narrowOut[i] != wideOut[i] {
			t.Fatalf("wide and narrow runs differ:\n%s\n%s", wideOut[i], narrowOut[i])
		}
	}
	t.Logf("one slice-and-propagate pass over 4 sinks: %d bytes narrow, %d wide", narrow, wide)
	if wide > narrow+1024 {
		t.Errorf("a 65,535-register method allocates %d bytes per pass, %d more than a 5-register one", wide, wide-narrow)
	}
}

// maxTestRegisters is the largest register count a body can declare.
const maxTestRegisters = 1<<16 - 1
