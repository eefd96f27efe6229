package appgen

import (
	"fmt"
	"math/rand"

	"backdroid/internal/android"
	"backdroid/internal/apk"
	"backdroid/internal/dex"
	"backdroid/internal/manifest"
)

// Mutation selects how an app update (version N+1) differs from its base.
// Each kind models one real-world update pattern with a known blast
// radius, so the delta-analysis tests and benches can pin exactly how
// much re-analysis each one should trigger.
type Mutation int

// Mutation kinds.
const (
	// MutateChangeLiteral flips the security of one existing sink's
	// parameter literal (e.g. AES/ECB -> AES/GCM). Only the class holding
	// that sink changes; every other class is byte-identical.
	MutateChangeLiteral Mutation = iota + 1
	// MutateNewFlow appends a new exported, registered service whose
	// onCreate carries a fresh sink call. The base classes are
	// byte-identical; the manifest gains one component.
	MutateNewFlow
	// MutateAddClass appends an inert class that references no sink and
	// no app code — the "bundled SDK bumped a helper" update. Every sink
	// verdict is unchanged.
	MutateAddClass
)

var mutationNames = map[Mutation]string{
	MutateChangeLiteral: "change-literal",
	MutateNewFlow:       "new-flow",
	MutateAddClass:      "add-class",
}

// String names the mutation kind.
func (m Mutation) String() string {
	if n, ok := mutationNames[m]; ok {
		return n
	}
	return fmt.Sprintf("mutation(%d)", int(m))
}

// Mutations lists every mutation kind, for property tests and corpora.
func Mutations() []Mutation {
	return []Mutation{MutateChangeLiteral, MutateNewFlow, MutateAddClass}
}

// AppUpdateSpec describes version N+1 of a generated app.
type AppUpdateSpec struct {
	Base     Spec
	Mutation Mutation
	// TargetSink indexes Base.Sinks for MutateChangeLiteral; ignored by
	// the other kinds.
	TargetSink int
	// Seed drives the mutation's own randomness (new-flow literals). It
	// is deliberately separate from Base.Seed so the base classes come
	// out byte-identical to the base app.
	Seed int64
}

// GenerateUpdate builds version N+1 of the base app plus its ground
// truth. The update keeps the base app's name: it is the same app, and
// the analysis cache / job queue key on the name while the content
// fingerprint distinguishes the versions.
//
// The base portion of the update is regenerated from Base (generation is
// deterministic), so all unmutated classes are byte-identical to the
// base app's — the property the per-class content addressing and the
// delta engine rely on.
func GenerateUpdate(u AppUpdateSpec) (*apk.App, *GroundTruth, error) {
	switch u.Mutation {
	case MutateChangeLiteral:
		return generateChangedLiteral(u)
	case MutateNewFlow:
		return generateNewFlow(u)
	case MutateAddClass:
		return generateAddedClass(u)
	default:
		return nil, nil, fmt.Errorf("appgen: unknown mutation %v", u.Mutation)
	}
}

// generateChangedLiteral regenerates the app with the target sink's
// Insecure flag flipped. emitSinkCall consumes the same rng draws for
// either security level, so the rng stream — and with it every other
// class — is unchanged; only the class containing the target sink
// differs.
func generateChangedLiteral(u AppUpdateSpec) (*apk.App, *GroundTruth, error) {
	if u.TargetSink < 0 || u.TargetSink >= len(u.Base.Sinks) {
		return nil, nil, fmt.Errorf("appgen: update target sink %d out of range (%d sinks)",
			u.TargetSink, len(u.Base.Sinks))
	}
	spec := u.Base
	spec.Sinks = append([]SinkSpec(nil), u.Base.Sinks...)
	spec.Sinks[u.TargetSink].Insecure = !spec.Sinks[u.TargetSink].Insecure
	return Generate(spec)
}

// generateNewFlow regenerates the base app and appends one exported
// registered service with its own sink flow. The service is an ICC entry
// point on its own (exported with an intent filter), so no existing
// class — in particular MainActivity — needs a driver edit.
func generateNewFlow(u AppUpdateSpec) (*apk.App, *GroundTruth, error) {
	app, truth, err := Generate(u.Base)
	if err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(u.Seed))
	spec := SinkSpec{
		Flow:     FlowICC,
		Rule:     android.RuleCryptoECB,
		Insecure: rng.Intn(2) == 0,
	}

	// A throwaway generator scoped to the new class: its rng cannot
	// perturb the (already built) base classes.
	g := &generator{spec: u.Base, rng: rng, truth: truth, pkg: u.Base.Name}
	svcName := g.cls("UpdateService")
	svc := dex.NewClass(svcName).Extends(android.ServiceClass)
	ctor := svc.Constructor()
	ctor.InvokeDirect(serviceInit, ctor.This()).ReturnVoid().Done()
	onCreate := svc.Method("onCreate", dex.Void)
	g.emitSinkCall(onCreate, spec)
	onCreate.ReturnVoid().Done()

	last := app.Dexes[len(app.Dexes)-1]
	if err := last.AddClass(svc.Build()); err != nil {
		return nil, nil, fmt.Errorf("appgen: update service: %w", err)
	}
	app.Manifest.Add(manifest.Service, svcName, manifest.IntentFilter{
		Actions: []string{u.Base.Name + ".action.UPDATE_WORK"},
	})
	g.addTruth(spec, svcName, "onCreate", true)
	return app, truth, nil
}

// generateAddedClass regenerates the base app and appends one inert
// arithmetic-only class. It is unreferenced, unregistered, and contains
// no invocation or literal any targeted search could match, so a sound
// delta analysis must reuse every settled sink verdict.
func generateAddedClass(u AppUpdateSpec) (*apk.App, *GroundTruth, error) {
	app, truth, err := Generate(u.Base)
	if err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(u.Seed))
	name := u.Base.Name + ".UpdatePatch"
	cb := dex.NewClass(name)
	mb := cb.StaticMethod("version", dex.Int)
	r0, r1 := mb.Reg(), mb.Reg()
	mb.Const(r0, int64(rng.Intn(1000)+1)).
		Const(r1, int64(rng.Intn(1000)+1)).
		Binop(dex.OpAdd, r0, r0, r1).
		Return(r0).
		Done()
	last := app.Dexes[len(app.Dexes)-1]
	if err := last.AddClass(cb.Build()); err != nil {
		return nil, nil, fmt.Errorf("appgen: update patch class: %w", err)
	}
	return app, truth, nil
}
