package service

import (
	"reflect"
	"testing"

	"backdroid/internal/android"
	"backdroid/internal/bcsearch"
	"backdroid/internal/core"
)

// fingerprintMutators changes exactly one core.Options field per entry,
// to a value observably different from core.DefaultOptions(). The
// property test below requires one mutator per struct field, so adding a
// field to core.Options fails this file until the new field is both
// classified (fingerprint.go) and exercised here.
var fingerprintMutators = map[string]func(o *core.Options){
	"Sinks": func(o *core.Options) {
		o.Sinks = append([]android.Sink(nil), o.Sinks...)
		o.Sinks[0].ParamIndex++
	},
	"EnableSearchCache":     func(o *core.Options) { o.EnableSearchCache = !o.EnableSearchCache },
	"SearchBackend":         func(o *core.Options) { o.SearchBackend = bcsearch.BackendLinear },
	"IndexShards":           func(o *core.Options) { o.IndexShards += 3 },
	"MemoizeForwardPass":    func(o *core.Options) { o.MemoizeForwardPass = !o.MemoizeForwardPass },
	"EnableSinkCache":       func(o *core.Options) { o.EnableSinkCache = !o.EnableSinkCache },
	"EnableLoopDetection":   func(o *core.Options) { o.EnableLoopDetection = !o.EnableLoopDetection },
	"ResolveSinkSubclasses": func(o *core.Options) { o.ResolveSinkSubclasses = !o.ResolveSinkSubclasses },
	"AnalyzeAllContained":   func(o *core.Options) { o.AnalyzeAllContained = !o.AnalyzeAllContained },
	"PerAppSSG":             func(o *core.Options) { o.PerAppSSG = !o.PerAppSSG },
	"MaxDepth":              func(o *core.Options) { o.MaxDepth += 7 },
	"TimeoutMinutes":        func(o *core.Options) { o.TimeoutMinutes += 1.5 },

	"IndexCacheDir":   func(o *core.Options) { o.IndexCacheDir = "/somewhere/else" },
	"Bundles":         func(o *core.Options) { o.Bundles = NewBundleStore(0) },
	"Cancel":          func(o *core.Options) { o.Cancel = func() bool { return false } },
	"Heartbeat":       func(o *core.Options) { o.Heartbeat = func(int64) bool { return false } },
	"SinkObserver":    func(o *core.Options) { o.SinkObserver = func(*core.SinkReport) {} },
	"DeltaFrom":       func(o *core.Options) { o.DeltaFrom = &core.DeltaBase{Fingerprint: 1} },
	"SinkChunk":       func(o *core.Options) { o.SinkChunk += 5 },
	"ChunkRange":      func(o *core.Options) { o.ChunkRange = &core.ChunkRange{From: 0, To: 3} },
	"SinkProgress":    func(o *core.Options) { o.SinkProgress = func(int, int) bool { return false } },
	"PhaseSpan":       func(o *core.Options) { o.PhaseSpan = func(string, int, int64, int64) {} },
	"MeterCheckpoint": func(o *core.Options) { o.MeterCheckpoint = func(int64, int64) {} },
}

// TestOptionsFingerprintClassProperty is the field-by-field soundness
// property: mutating a ClassHashed field must move the fingerprint (no
// cross-config aliasing of settled reports), mutating a ClassNeutral
// field must not (warm-start seams and callbacks share the cold run's
// address).
func TestOptionsFingerprintClassProperty(t *testing.T) {
	base := core.DefaultOptions()
	baseFP := OptionsFingerprint(&base)
	for name, class := range OptionsFingerprintFields {
		mutate, ok := fingerprintMutators[name]
		if !ok {
			t.Fatalf("field %s has no mutator — extend fingerprintMutators", name)
		}
		o := core.DefaultOptions()
		mutate(&o)
		fp := OptionsFingerprint(&o)
		switch class {
		case ClassHashed:
			if fp == baseFP {
				t.Errorf("hashed field %s: mutation did not change the fingerprint", name)
			}
		case ClassNeutral:
			if fp != baseFP {
				t.Errorf("neutral field %s: mutation changed the fingerprint", name)
			}
		default:
			t.Errorf("field %s has unknown class %d", name, class)
		}
	}
}

// TestOptionsFingerprintSinkSensitivity pins the sink-list details the
// property test's single mutation cannot cover: count, order and every
// per-sink component move the hash.
func TestOptionsFingerprintSinkSensitivity(t *testing.T) {
	base := core.DefaultOptions()
	if len(base.Sinks) < 2 {
		t.Fatalf("default sink list too short for the order test: %d", len(base.Sinks))
	}
	baseFP := OptionsFingerprint(&base)
	variants := map[string]func(o *core.Options){
		"dropped sink": func(o *core.Options) { o.Sinks = o.Sinks[:len(o.Sinks)-1] },
		"swapped order": func(o *core.Options) {
			o.Sinks = append([]android.Sink(nil), o.Sinks...)
			o.Sinks[0], o.Sinks[1] = o.Sinks[1], o.Sinks[0]
		},
		"changed rule": func(o *core.Options) {
			o.Sinks = append([]android.Sink(nil), o.Sinks...)
			o.Sinks[0].Rule++
		},
		"changed method": func(o *core.Options) {
			o.Sinks = append([]android.Sink(nil), o.Sinks...)
			o.Sinks[0].Method.Name += "X"
		},
	}
	for name, mutate := range variants {
		o := core.DefaultOptions()
		mutate(&o)
		if OptionsFingerprint(&o) == baseFP {
			t.Errorf("%s did not change the fingerprint", name)
		}
	}
}

// TestOptionsFingerprintStable pins determinism: the hash depends only on
// field values, never on pointers or process state, so equal options
// hash equal (the journaled settled keys must survive a restart).
func TestOptionsFingerprintStable(t *testing.T) {
	a := core.DefaultOptions()
	b := core.DefaultOptions()
	if OptionsFingerprint(&a) != OptionsFingerprint(&b) {
		t.Fatal("equal options produced different fingerprints")
	}
	if OptionsFingerprint(&a) != OptionsFingerprint(&a) {
		t.Fatal("fingerprint not stable across calls")
	}
}

// TestOptionsFingerprintFieldGuard is the compile guard: every field of
// core.Options must be classified in OptionsFingerprintFields, and every
// classified name must still exist in the struct. A new Options field
// fails here until someone decides — explicitly — whether it is
// verdict-relevant.
func TestOptionsFingerprintFieldGuard(t *testing.T) {
	typ := reflect.TypeOf(core.Options{})
	structFields := make(map[string]bool, typ.NumField())
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		structFields[name] = true
		class, ok := OptionsFingerprintFields[name]
		if !ok {
			t.Errorf("core.Options.%s is not classified in OptionsFingerprintFields — "+
				"decide whether it changes reports (ClassHashed) or provably cannot (ClassNeutral)", name)
			continue
		}
		if class != ClassHashed && class != ClassNeutral {
			t.Errorf("core.Options.%s has invalid class %d", name, class)
		}
	}
	for name := range OptionsFingerprintFields {
		if !structFields[name] {
			t.Errorf("OptionsFingerprintFields lists %s, which core.Options no longer has", name)
		}
	}
	for name := range fingerprintMutators {
		if !structFields[name] {
			t.Errorf("fingerprintMutators lists %s, which core.Options no longer has", name)
		}
	}
}
