package appgen

import (
	"bytes"
	"testing"

	"backdroid/internal/android"
	"backdroid/internal/apk"
	"backdroid/internal/dexdump"
)

func updateBaseSpec() Spec {
	return Spec{
		Name:   "com.update.app",
		Seed:   41,
		SizeMB: 1.5,
		Sinks: []SinkSpec{
			{Flow: FlowDirect, Rule: android.RuleCryptoECB, Insecure: true},
			{Flow: FlowThread, Rule: android.RuleSSLAllowAll, Insecure: false},
			{Flow: FlowICC, Rule: android.RuleCryptoECB, Insecure: false},
		},
	}
}

func diffApps(t *testing.T, base, upd *apk.App) *dexdump.ManifestDiff {
	t.Helper()
	db, err := base.MergedDex()
	if err != nil {
		t.Fatal(err)
	}
	du, err := upd.MergedDex()
	if err != nil {
		t.Fatal(err)
	}
	old := dexdump.BuildManifest(dexdump.Disassemble(db))
	new := dexdump.BuildManifest(dexdump.Disassemble(du))
	return dexdump.DiffManifests(old, new)
}

// TestUpdateChangeLiteralTouchesOneClass pins the blast radius the delta
// engine relies on: flipping one sink literal changes exactly the class
// holding that sink and flips exactly that sink's truth.
func TestUpdateChangeLiteralTouchesOneClass(t *testing.T) {
	spec := updateBaseSpec()
	base, baseTruth, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	upd, updTruth, err := GenerateUpdate(AppUpdateSpec{
		Base: spec, Mutation: MutateChangeLiteral, TargetSink: 0, Seed: 99,
	})
	if err != nil {
		t.Fatal(err)
	}

	d := diffApps(t, base, upd)
	if len(d.Added) != 0 || len(d.Removed) != 0 {
		t.Fatalf("change-literal added/removed classes: %+v", d)
	}
	if len(d.Changed) != 1 || d.Changed[0] != baseTruth.Sinks[0].Class {
		t.Fatalf("changed classes = %v, want exactly [%s]", d.Changed, baseTruth.Sinks[0].Class)
	}

	if len(updTruth.Sinks) != len(baseTruth.Sinks) {
		t.Fatalf("truth count changed: %d -> %d", len(baseTruth.Sinks), len(updTruth.Sinks))
	}
	if updTruth.Sinks[0].Insecure == baseTruth.Sinks[0].Insecure {
		t.Error("target sink's Insecure truth did not flip")
	}
	for i := 1; i < len(baseTruth.Sinks); i++ {
		if updTruth.Sinks[i] != baseTruth.Sinks[i] {
			t.Errorf("untargeted sink %d truth changed: %+v -> %+v", i, baseTruth.Sinks[i], updTruth.Sinks[i])
		}
	}
}

// TestUpdateNewFlowAppendsServiceOnly pins that the new-flow update keeps
// every base class byte-identical, adds one registered exported service,
// and appends exactly one reachable truth entry.
func TestUpdateNewFlowAppendsServiceOnly(t *testing.T) {
	spec := updateBaseSpec()
	base, baseTruth, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	upd, updTruth, err := GenerateUpdate(AppUpdateSpec{Base: spec, Mutation: MutateNewFlow, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}

	d := diffApps(t, base, upd)
	if len(d.Changed) != 0 || len(d.Removed) != 0 {
		t.Fatalf("new-flow changed/removed base classes: %+v", d)
	}
	svc := spec.Name + ".UpdateService"
	if len(d.Added) != 1 || d.Added[0] != svc {
		t.Fatalf("added classes = %v, want exactly [%s]", d.Added, svc)
	}

	if !upd.Manifest.IsRegistered(svc) {
		t.Error("update service not registered in the manifest")
	}
	if c := upd.Manifest.Component(svc); c == nil || !c.Exported {
		t.Errorf("update service not exported: %+v", c)
	}
	if len(updTruth.Sinks) != len(baseTruth.Sinks)+1 {
		t.Fatalf("truth count = %d, want %d", len(updTruth.Sinks), len(baseTruth.Sinks)+1)
	}
	added := updTruth.Sinks[len(updTruth.Sinks)-1]
	if added.Class != svc || added.Method != "onCreate" || !added.Reachable {
		t.Errorf("added truth = %+v, want reachable %s.onCreate", added, svc)
	}
}

// TestUpdateAddClassIsInert pins the SDK-bump update: one added class,
// identical truth.
func TestUpdateAddClassIsInert(t *testing.T) {
	spec := updateBaseSpec()
	base, baseTruth, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	upd, updTruth, err := GenerateUpdate(AppUpdateSpec{Base: spec, Mutation: MutateAddClass, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}

	d := diffApps(t, base, upd)
	if len(d.Changed) != 0 || len(d.Removed) != 0 {
		t.Fatalf("add-class changed/removed base classes: %+v", d)
	}
	patch := spec.Name + ".UpdatePatch"
	if len(d.Added) != 1 || d.Added[0] != patch {
		t.Fatalf("added classes = %v, want exactly [%s]", d.Added, patch)
	}
	if len(updTruth.Sinks) != len(baseTruth.Sinks) {
		t.Fatalf("inert update changed truth count: %d -> %d", len(baseTruth.Sinks), len(updTruth.Sinks))
	}
	for i := range baseTruth.Sinks {
		if updTruth.Sinks[i] != baseTruth.Sinks[i] {
			t.Errorf("sink %d truth changed: %+v -> %+v", i, baseTruth.Sinks[i], updTruth.Sinks[i])
		}
	}
}

// TestGenerateUpdateDeterministic pins that updates are reproducible:
// same spec, same bytes.
func TestGenerateUpdateDeterministic(t *testing.T) {
	for _, m := range Mutations() {
		u := AppUpdateSpec{Base: updateBaseSpec(), Mutation: m, Seed: 11}
		a1, _, err := GenerateUpdate(u)
		if err != nil {
			t.Fatal(err)
		}
		a2, _, err := GenerateUpdate(u)
		if err != nil {
			t.Fatal(err)
		}
		b1, err := a1.Bytes()
		if err != nil {
			t.Fatal(err)
		}
		b2, err := a2.Bytes()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b1, b2) {
			t.Errorf("%v update not deterministic", m)
		}
	}
}
