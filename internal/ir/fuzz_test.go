package ir

import (
	"errors"
	"testing"

	"backdroid/internal/android"
	"backdroid/internal/appgen"
	"backdroid/internal/dex"
	"backdroid/internal/testapps"
)

// FuzzTranslate feeds decoded dex files to the translator: every concrete
// method of a file dex.Decode accepts must translate without panicking, a
// failure must be a *TranslateError, and every branch target of a
// translated body must index its units. Seeds are the fixture app, a few
// generated apps covering every flow shape, the hostile dex body of
// testapps.BadBodyContainer and three hostile register counts.
func FuzzTranslate(f *testing.F) {
	app, err := testapps.Fixture()
	if err != nil {
		f.Fatal(err)
	}
	for _, d := range app.Dexes {
		f.Add(dex.Encode(d))
	}
	var sinks []appgen.SinkSpec
	for fl := appgen.FlowDirect; fl <= appgen.FlowSuperPoly; fl++ {
		sinks = append(sinks, appgen.SinkSpec{Flow: fl, Rule: android.RuleCryptoECB, Insecure: true})
	}
	for seed := int64(1); seed <= 3; seed++ {
		gen, _, err := appgen.Generate(appgen.Spec{Name: "com.fuzz.ir", Seed: seed, SizeMB: 0.1, Sinks: sinks[:4*seed]})
		if err != nil {
			f.Fatal(err)
		}
		for _, d := range gen.Dexes {
			f.Add(dex.Encode(d))
		}
	}
	_, bad, err := testapps.BadBodyContainer()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(bad)
	// Register counts Translate once crashed on: one no locals table can
	// hold and one that wraps negative, which the decoder now rejects as
	// past the u16 Dalvik stores, and an instance method with no register
	// for its receiver.
	for _, regs := range []int{1 << 40, -1, 0} {
		cb := dex.NewClass("com.fuzz.Regs")
		mb := cb.StaticMethod("m", dex.Void)
		if regs == 0 {
			mb = cb.Method("m", dex.Void)
		}
		mb.ReturnVoid()
		c := mb.Done().Build()
		c.Methods[0].Registers = regs
		file := dex.NewFile()
		if err := file.AddClass(c); err != nil {
			f.Fatal(err)
		}
		f.Add(dex.Encode(file))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		file, err := dex.Decode(data)
		if err != nil {
			return
		}
		for _, c := range file.Classes() {
			for _, m := range c.Methods {
				if m.IsAbstract() {
					continue
				}
				body, err := Translate(m)
				if err != nil {
					var te *TranslateError
					if !errors.As(err, &te) {
						t.Fatalf("Translate(%s) failed with %T, want *TranslateError: %v", m.Ref, err, err)
					}
					continue
				}
				for i, u := range body.Units {
					target := -1
					switch s := u.(type) {
					case *IfStmt:
						target = s.Target
					case *GotoStmt:
						target = s.Target
					default:
						continue
					}
					if target < 0 || target >= len(body.Units) {
						t.Fatalf("Translate(%s): unit %d branches to %d, outside %d units", m.Ref, i, target, len(body.Units))
					}
				}
			}
		}
	})
}
