package core

import (
	"fmt"
	"sync"
	"testing"

	"backdroid/internal/android"
	"backdroid/internal/appgen"
	"backdroid/internal/bcsearch"
	"backdroid/internal/dexdump"
)

// memBundles is a minimal in-memory BundleCache for delta tests.
type memBundles struct {
	mu sync.Mutex
	m  map[uint64][]byte
}

func newMemBundles() *memBundles { return &memBundles{m: make(map[uint64][]byte)} }

func (b *memBundles) GetBundle(fp uint64) ([]byte, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	d, ok := b.m[fp]
	return d, ok
}

func (b *memBundles) PutBundle(fp uint64, data []byte) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.m[fp]; !ok {
		b.m[fp] = data
	}
}

func (b *memBundles) DropBundle(fp uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	delete(b.m, fp)
}

func deltaBaseSpec() appgen.Spec {
	return appgen.Spec{
		Name:   "com.delta.app",
		Seed:   20210601,
		SizeMB: 1.5,
		Sinks: []appgen.SinkSpec{
			{Flow: appgen.FlowDirect, Rule: android.RuleCryptoECB, Insecure: true},
			{Flow: appgen.FlowThread, Rule: android.RuleSSLAllowAll, Insecure: true},
			{Flow: appgen.FlowICC, Rule: android.RuleCryptoECB, Insecure: false},
			{Flow: appgen.FlowClinit, Rule: android.RuleCryptoECB, Insecure: true},
			{Flow: appgen.FlowCallback, Rule: android.RuleSSLAllowAll, Insecure: false},
		},
	}
}

// deltaBaseFor runs the base app cold against a fresh bundle store and
// returns the DeltaBase a follow-up run would receive from the service.
func deltaBaseFor(t *testing.T, spec appgen.Spec, backend bcsearch.BackendKind) *DeltaBase {
	t.Helper()
	base, _, err := appgen.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	mem := newMemBundles()
	opts := DefaultOptions()
	opts.SearchBackend = backend
	opts.Bundles = mem
	rep := analyzeApp(t, base, opts)
	data, ok := mem.GetBundle(dexdump.AppFingerprint(base.Dexes))
	if !ok {
		t.Fatal("base run did not publish its bundle")
	}
	return &DeltaBase{Bundle: data, Report: rep}
}

// TestDeltaMatchesColdRun is the delta soundness property (DESIGN.md
// Sec. 10): for every update mutation kind on the indexed backend, the
// incremental run produces the same verdicts, entries and recovered
// values as a cold re-analysis of the updated app, reuses at least one
// settled sink, and charges strictly less simulated work.
func TestDeltaMatchesColdRun(t *testing.T) {
	spec := deltaBaseSpec()
	db := deltaBaseFor(t, spec, bcsearch.BackendIndexed)
	for _, m := range appgen.Mutations() {
		t.Run(fmt.Sprintf("indexed/%s", m), func(t *testing.T) {
			upd, truth, err := appgen.GenerateUpdate(appgen.AppUpdateSpec{
				Base: spec, Mutation: m, TargetSink: 0, Seed: 20210602,
			})
			if err != nil {
				t.Fatal(err)
			}

			cold := analyzeApp(t, upd, DefaultOptions())

			deltaOpts := DefaultOptions()
			deltaOpts.DeltaFrom = db
			delta := analyzeApp(t, upd, deltaOpts)

			assertSameVerdicts(t, "delta vs cold", cold, delta)
			scoreAgainstTruth(t, delta, truth)

			ds, cs := delta.Stats, cold.Stats
			if ds.SinksReused == 0 {
				t.Errorf("delta run reused no sinks: %+v", ds)
			}
			if ds.SinksReused+ds.SinksRerun != len(delta.Sinks) {
				t.Errorf("reused %d + rerun %d != %d sinks", ds.SinksReused, ds.SinksRerun, len(delta.Sinks))
			}
			if ds.WorkUnits >= cs.WorkUnits {
				t.Errorf("delta charged %d units, cold %d — must be strictly cheaper", ds.WorkUnits, cs.WorkUnits)
			}
			if m == appgen.MutateAddClass && ds.SinksRerun != 0 {
				t.Errorf("inert added class re-ran %d sinks, want 0", ds.SinksRerun)
			}
			if m == appgen.MutateChangeLiteral {
				// The mutated sink's verdict must come from a real
				// re-run, not a stale carried-over report.
				if ds.SinksRerun == 0 {
					t.Error("changed-literal update re-ran no sinks")
				}
				for _, sr := range delta.Sinks {
					if sr.Call.Caller.Class == truth.Sinks[0].Class && sr.Reused {
						t.Errorf("sink in the changed class %s was reused", truth.Sinks[0].Class)
					}
				}
			}
		})
	}
}

// scoreAgainstTruth checks a report's verdicts against appgen ground
// truth for the flows whose sinks the engine reports individually.
func scoreAgainstTruth(t *testing.T, r *Report, truth *appgen.GroundTruth) {
	t.Helper()
	// Index reported insecure sinks by containing class.
	insecure := make(map[string]bool)
	for _, sr := range r.Sinks {
		if sr.Reachable && sr.Insecure {
			insecure[sr.Call.Caller.Class] = true
		}
	}
	for _, ts := range truth.Sinks {
		if ts.Spec.Flow == appgen.FlowSubclassSink {
			continue // known BackDroid FN by design
		}
		if ts.Insecure && !insecure[ts.Class] {
			t.Errorf("truth: insecure sink in %s.%s not reported", ts.Class, ts.Method)
		}
	}
}

// TestDeltaCorruptBaseFallsBackToFullRun pins the robustness contract:
// a delta base whose bundle bytes are damaged (any byte, or truncated)
// silently degrades to a full re-analysis with identical verdicts and
// zero reused sinks — never an error, never a wrong verdict.
func TestDeltaCorruptBaseFallsBackToFullRun(t *testing.T) {
	spec := deltaBaseSpec()
	db := deltaBaseFor(t, spec, bcsearch.BackendIndexed)
	upd, _, err := appgen.GenerateUpdate(appgen.AppUpdateSpec{
		Base: spec, Mutation: MutationForCorruptTest, TargetSink: 0, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	cold := analyzeApp(t, upd, DefaultOptions())

	corrupt := func(name string, mutate func([]byte) []byte) {
		data := append([]byte(nil), db.Bundle...)
		data = mutate(data)
		opts := DefaultOptions()
		opts.DeltaFrom = &DeltaBase{Bundle: data, Report: db.Report}
		got := analyzeApp(t, upd, opts)
		assertSameVerdicts(t, name, cold, got)
	}
	corrupt("truncated base", func(d []byte) []byte { return d[:len(d)/2] })
	corrupt("flipped magic", func(d []byte) []byte { d[0] ^= 0xFF; return d })
	corrupt("flipped tail byte", func(d []byte) []byte { d[len(d)-1] ^= 0x01; return d })
	corrupt("empty base", func(d []byte) []byte { return nil })
}

// MutationForCorruptTest keeps the corrupt-base test on the mutation with
// the widest reuse surface, where a wrongly-trusted base would matter most.
const MutationForCorruptTest = appgen.MutateChangeLiteral
