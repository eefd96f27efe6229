package core

import (
	"runtime"
	"slices"
	"strings"
	"testing"

	"backdroid/internal/android"
	"backdroid/internal/apk"
	"backdroid/internal/constprop"
	"backdroid/internal/dex"
	"backdroid/internal/manifest"
)

// doublingApp builds one registered activity whose onCreate starts from
// const-string "AB", doubles the string rounds times and passes it to
// Cipher.getInstance. With builder set the doubling goes through a
// StringBuilder (append of its own toString), otherwise through
// String.concat.
func doublingApp(t *testing.T, rounds int, builder bool) *apk.App {
	t.Helper()
	const pkg = "com.hostile.doubling"
	str := dex.StringT
	sb := "java.lang.StringBuilder"
	concat := dex.NewMethodRef("java.lang.String", "concat", str, str)
	sbInit := dex.NewMethodRef(sb, "<init>", dex.Void)
	sbAppend := dex.NewMethodRef(sb, "append", dex.T(sb), str)
	sbToString := dex.NewMethodRef(sb, "toString", str)

	main := dex.NewClass(pkg + ".MainActivity").Extends(android.ActivityClass)
	ctor := main.Constructor()
	ctor.InvokeDirect(dex.NewMethodRef(android.ActivityClass, "<init>", dex.Void), ctor.This()).
		ReturnVoid().Done()
	m := main.Method("onCreate", dex.Void, dex.T(android.BundleClass))
	s, b, c := m.Reg(), m.Reg(), m.Reg()
	m.ConstString(s, "AB")
	if builder {
		m.New(b, sb).InvokeDirect(sbInit, b).InvokeVirtual(sbAppend, b, s).MoveResult(b)
		for i := 0; i < rounds; i++ {
			m.InvokeVirtual(sbToString, b).MoveResult(s).
				InvokeVirtual(sbAppend, b, s).MoveResult(b)
		}
		m.InvokeVirtual(sbToString, b).MoveResult(s)
	} else {
		for i := 0; i < rounds; i++ {
			m.InvokeVirtual(concat, s, s).MoveResult(s)
		}
	}
	m.InvokeStatic(android.CipherGetInstance, s).MoveResult(c).ReturnVoid().Done()

	f := dex.NewFile()
	if err := f.AddClass(main.Build()); err != nil {
		t.Fatal(err)
	}
	mf := manifest.New(pkg)
	mf.Add(manifest.Activity, pkg+".MainActivity", manifest.IntentFilter{
		Actions: []string{"android.intent.action.MAIN"},
	})
	return apk.New(pkg, mf, f)
}

// TestDoublingStringIsBounded pins the length k-limit on abstract
// strings: 20 doublings of "AB" would make a 2 MiB value (and about
// 20 MB of garbage on the way); past constprop.MaxValueBytes the value
// degrades to unknown, so the whole job stays within a small allocation
// budget. A short chain keeps its exact value.
func TestDoublingStringIsBounded(t *testing.T) {
	const budget = 2 << 20
	for _, builder := range []bool{false, true} {
		name := map[bool]string{false: "concat", true: "StringBuilder"}[builder]
		t.Run(name, func(t *testing.T) {
			short := sinkValues(t, doublingApp(t, 3, builder))
			if got, want := short, []string{`"` + strings.Repeat("AB", 8) + `"`}; !slices.Equal(got, want) {
				t.Fatalf("3 doublings: values %q, want %q", got, want)
			}

			app := doublingApp(t, 20, builder)
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			values := sinkValues(t, app)
			runtime.ReadMemStats(&after)
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc > budget {
				t.Errorf("20 doublings allocated %d bytes, budget %d", alloc, budget)
			}
			for _, v := range values {
				if len(v) > constprop.MaxValueBytes+2 {
					t.Fatalf("sink value of %d bytes passes MaxValueBytes %d", len(v), constprop.MaxValueBytes)
				}
			}
			if !slices.Equal(values, []string{"unknown"}) {
				t.Errorf("20 doublings: values %q, want [unknown]", values)
			}
		})
	}
}

// sinkValues runs the default engine on app and returns the values of
// its one sink.
func sinkValues(t *testing.T, app *apk.App) []string {
	t.Helper()
	rep := analyzeApp(t, app, DefaultOptions())
	if len(rep.Sinks) != 1 || !rep.Sinks[0].Reachable {
		t.Fatalf("want one reachable sink, got %d", len(rep.Sinks))
	}
	return rep.Sinks[0].Values
}
