package core

import (
	"reflect"
	"testing"

	"backdroid/internal/simtime"
)

// TestMergeReportsSumsEveryStat guards addStats's hand-written field
// list: a counter added to Stats (or to the embedded bcsearch.Stats) and
// missed there would silently vanish from every chunk-merged report. Two
// parts with every numeric field set to 1 must merge to 2 in every field,
// with two named exceptions: SimMinutes is recomputed from WorkUnits, and
// ForwardMemoHits is always 0 and never summed.
func TestMergeReportsSumsEveryStat(t *testing.T) {
	exempt := map[string]bool{"SimMinutes": true, "ForwardMemoHits": true}
	part := func() *Report {
		r := &Report{}
		walkStats(t, reflect.ValueOf(&r.Stats).Elem(), "", func(path string, f reflect.Value) {
			setNumeric(f, 1)
		})
		r.Stats.Loops = map[LoopKind]int{CrossBackward: 1}
		return r
	}
	merged := MergeReports(part(), part())
	walkStats(t, reflect.ValueOf(&merged.Stats).Elem(), "", func(path string, f reflect.Value) {
		if exempt[path] {
			return
		}
		if got := numeric(f); got != 2 {
			t.Errorf("merged Stats.%s = %v, want 2 (is it summed in addStats?)", path, got)
		}
	})
	if got := merged.Stats.Loops[CrossBackward]; got != 2 || len(merged.Stats.Loops) != 1 {
		t.Errorf("merged Stats.Loops = %v, want {%v: 2}", merged.Stats.Loops, CrossBackward)
	}
	if want := simtime.UnitsToMinutes(2); merged.Stats.SimMinutes != want {
		t.Errorf("merged Stats.SimMinutes = %v, want %v (recomputed from WorkUnits)", merged.Stats.SimMinutes, want)
	}
	if merged.Stats.ForwardMemoHits != 0 {
		t.Errorf("merged Stats.ForwardMemoHits = %d, want 0", merged.Stats.ForwardMemoHits)
	}
}

// walkStats calls visit on every numeric field of a Stats value,
// descending into nested structs; Loops is the one map and is set by the
// caller. Any other field kind fails the test, so a new non-numeric
// field must be taught to both addStats and this walk.
func walkStats(t *testing.T, v reflect.Value, prefix string, visit func(string, reflect.Value)) {
	t.Helper()
	for i := 0; i < v.NumField(); i++ {
		f, name := v.Field(i), prefix+v.Type().Field(i).Name
		switch f.Kind() {
		case reflect.Struct:
			walkStats(t, f, name+".", visit)
		case reflect.Int, reflect.Int64, reflect.Float64:
			visit(name, f)
		case reflect.Map:
			if name != "Loops" {
				t.Fatalf("Stats.%s: unexpected map field", name)
			}
		default:
			t.Fatalf("Stats.%s: unhandled field kind %s", name, f.Kind())
		}
	}
}

func setNumeric(f reflect.Value, n int64) {
	if f.Kind() == reflect.Float64 {
		f.SetFloat(float64(n))
		return
	}
	f.SetInt(n)
}

func numeric(f reflect.Value) float64 {
	if f.Kind() == reflect.Float64 {
		return f.Float()
	}
	return float64(f.Int())
}
