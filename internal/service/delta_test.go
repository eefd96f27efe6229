package service

import (
	"testing"

	"backdroid/internal/android"
	"backdroid/internal/apk"
	"backdroid/internal/appgen"
	"backdroid/internal/core"
)

func deltaJobSpec() appgen.Spec {
	return appgen.Spec{
		Name:   "com.svc.delta",
		Seed:   31337,
		SizeMB: 1,
		Sinks: []appgen.SinkSpec{
			{Flow: appgen.FlowDirect, Rule: android.RuleCryptoECB, Insecure: true},
			{Flow: appgen.FlowThread, Rule: android.RuleSSLAllowAll, Insecure: true},
			{Flow: appgen.FlowICC, Rule: android.RuleCryptoECB},
		},
	}
}

// TestSchedulerDeltaOnResubmission pins the service-level delta path: a
// job resubmitted under the same name with updated content runs the
// incremental engine against the prior version's stored bundle —
// verdicts identical to a cold analysis, settled sinks reused — while a
// resubmission of identical content stays on the plain warm path.
func TestSchedulerDeltaOnResubmission(t *testing.T) {
	spec := deltaJobSpec()
	upd, _, err := appgen.GenerateUpdate(appgen.AppUpdateSpec{
		Base: spec, Mutation: appgen.MutateChangeLiteral, TargetSink: 0, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}

	opts := core.DefaultOptions()
	s := New(Config{Workers: 1, Store: NewBundleStore(0), Options: &opts})
	defer s.Close()

	submit := func(src func() (*apk.App, error)) *JobResult {
		t.Helper()
		id, err := s.Submit(Job{Name: spec.Name, Source: src, RunBackDroid: true})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Wait(id)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	base := submit(sourceFor(spec))
	if st := base.BackDroid.Stats; st.SinksReused != 0 {
		t.Fatalf("base run reused sinks: %+v", st)
	}

	// Identical resubmission: warm bundle hit, no delta machinery.
	same := submit(sourceFor(spec))
	if st := same.BackDroid.Stats; st.SinksReused != 0 || st.DumpCacheHits != 1 {
		t.Fatalf("identical resubmission = %+v, want a plain warm run", st)
	}

	// Updated content under the same name: the delta path engages.
	delta := submit(func() (*apk.App, error) { return upd, nil })
	ds := delta.BackDroid.Stats
	if ds.SinksReused == 0 {
		t.Fatalf("update resubmission reused no sinks: %+v", ds)
	}
	if ds.SinksRerun == 0 {
		t.Fatalf("changed-literal update re-ran no sinks: %+v", ds)
	}

	// Cold reference run in a fresh scheduler: verdicts must match.
	s2 := New(Config{Workers: 1, Store: NewBundleStore(0), Options: &opts})
	defer s2.Close()
	id, err := s2.Submit(Job{Name: spec.Name, Source: func() (*apk.App, error) { return upd, nil }, RunBackDroid: true})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := s2.Wait(id)
	if err != nil {
		t.Fatal(err)
	}
	if detectionKey(cold.BackDroid) != detectionKey(delta.BackDroid) {
		t.Errorf("delta verdicts differ from cold:\n%s\nvs\n%s",
			detectionKey(delta.BackDroid), detectionKey(cold.BackDroid))
	}
	if ds.WorkUnits >= cold.BackDroid.Stats.WorkUnits {
		t.Errorf("delta charged %d units, cold %d — must be cheaper", ds.WorkUnits, cold.BackDroid.Stats.WorkUnits)
	}
}
