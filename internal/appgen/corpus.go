package appgen

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"backdroid/internal/android"
)

// YearStats is one row of the paper's Table I.
type YearStats struct {
	Year    int
	AvgMB   float64
	MedMB   float64
	Samples int
}

// PaperYearStats reproduces Table I's population parameters: the average
// and median popular-app sizes per year and the sample counts.
func PaperYearStats() []YearStats {
	return []YearStats{
		{Year: 2014, AvgMB: 13.8, MedMB: 8.4, Samples: 2840},
		{Year: 2015, AvgMB: 18.8, MedMB: 12.4, Samples: 1375},
		{Year: 2016, AvgMB: 21.6, MedMB: 16.2, Samples: 3510},
		{Year: 2017, AvgMB: 32.9, MedMB: 30.0, Samples: 1706},
		{Year: 2018, AvgMB: 42.6, MedMB: 38.0, Samples: 3178},
	}
}

// SampleSizesMB draws n app sizes from a lognormal distribution fitted to
// the given average and median: for lognormal, median = e^mu and
// mean = e^(mu+sigma^2/2), so sigma^2 = 2 ln(mean/median).
func SampleSizesMB(rng *rand.Rand, avg, median float64, n int) []float64 {
	mu := math.Log(median)
	sigma := math.Sqrt(2 * math.Log(avg/median))
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Exp(mu + sigma*rng.NormFloat64())
	}
	return out
}

// SizeStats summarizes a size sample.
type SizeStats struct {
	AvgMB float64
	MedMB float64
}

// Summarize computes average and median of a size sample.
func Summarize(sizes []float64) SizeStats {
	if len(sizes) == 0 {
		return SizeStats{}
	}
	sorted := make([]float64, len(sizes))
	copy(sorted, sizes)
	sort.Float64s(sorted)
	sum := 0.0
	for _, s := range sorted {
		sum += s
	}
	med := sorted[len(sorted)/2]
	if len(sorted)%2 == 0 {
		med = (sorted[len(sorted)/2-1] + sorted[len(sorted)/2]) / 2
	}
	return SizeStats{AvgMB: sum / float64(len(sorted)), MedMB: med}
}

// CorpusOptions configures the evaluation corpus builder.
type CorpusOptions struct {
	// Apps is the number of apps (the paper's evaluation set has 144).
	Apps int
	// Seed drives all sampling.
	Seed int64
	// SizeScale scales every app's size; 1.0 is paper scale. Benches use
	// smaller scales; only absolute simulated times change, not the
	// qualitative shapes.
	SizeScale float64
}

// DefaultCorpus mirrors the paper's 144-app evaluation set.
func DefaultCorpus() CorpusOptions {
	return CorpusOptions{Apps: 144, Seed: 20200523, SizeScale: 1.0}
}

// ManySinkOutlierSpec is the Fig. 9 many-sink outlier analogue (the
// paper's 121-sink Huawei Health case, Sec. VI-D): one large app whose
// 121 sinks all funnel their parameter through the app-shared
// configuration chain, so every per-sink slicing graph rebuilds the same
// subgraph — the heavy tail that sink-chunk stealing splits.
func ManySinkOutlierSpec(seed int64) Spec {
	sinks := make([]SinkSpec, 0, 121)
	for s := 0; s < 121; s++ {
		sinks = append(sinks, SinkSpec{
			Flow:     FlowSharedConfig,
			Rule:     android.RuleCryptoECB,
			Insecure: s%3 != 0,
		})
	}
	return Spec{
		Name:   "com.outlier.manysink",
		Seed:   seed,
		SizeMB: 8,
		Sinks:  sinks,
	}
}

// flowMix is the sampling weight of each flow kind in the corpus,
// approximating the composition the paper's diagnosis implies
// (Secs. VI-C/VI-D).
var flowMix = []struct {
	flow   Flow
	weight float64
}{
	{FlowDirect, 0.36},
	{FlowDirectPair, 0.08},
	{FlowRecursive, 0.06},
	{FlowThread, 0.09},
	{FlowClinit, 0.07},
	{FlowICC, 0.06},
	{FlowCallback, 0.06},
	{FlowAsyncExecutor, 0.06},
	{FlowChildClass, 0.05},
	{FlowSuperPoly, 0.05},
	{FlowDead, 0.03},
	{FlowUnregistered, 0.02},
	{FlowSkippedLib, 0.01},
}

func sampleFlow(rng *rand.Rand) Flow {
	x := rng.Float64()
	acc := 0.0
	for _, fm := range flowMix {
		acc += fm.weight
		if x < acc {
			return fm.flow
		}
	}
	return FlowDirect
}

// EvalCorpus generates the specs of the evaluation corpus: sizes fitted to
// the paper's 144 pre-searched apps (avg 41.5 MB, median 36.2 MB, range
// 2.9–104.9 MB), on average ~21 sink calls per app with one
// 121-sink outlier (the paper's Huawei Health analogue), exactly two apps
// containing subclassed sink wrappers (the paper's two BackDroid FNs), and
// a few apps with corrupted methods (Amandroid's occasional errors).
func EvalCorpus(opts CorpusOptions) []Spec {
	if opts.Apps <= 0 {
		opts.Apps = 144
	}
	if opts.SizeScale <= 0 {
		opts.SizeScale = 1.0
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	sizes := SampleSizesMB(rng, 41.5, 36.2, opts.Apps)
	for i := range sizes {
		// The paper's evaluation set has a fatter low tail than a pure
		// lognormal (its smallest app is 2.9 MB): mix in small apps.
		if rng.Float64() < 0.18 {
			sizes[i] = 2.9 + rng.Float64()*12
		}
		if sizes[i] < 2.9 {
			sizes[i] = 2.9
		}
		if sizes[i] > 104.9 {
			sizes[i] = 104.9
		}
	}

	specs := make([]Spec, opts.Apps)
	for i := range specs {
		sinkCount := 1 + int(rng.ExpFloat64()*19)
		if sinkCount > 70 {
			sinkCount = 70
		}
		var sinks []SinkSpec
		for s := 0; s < sinkCount; s++ {
			flow := sampleFlow(rng)
			rule := android.RuleCryptoECB
			if flow == FlowSubclassSink || rng.Float64() < 0.3 {
				rule = android.RuleSSLAllowAll
			}
			sinks = append(sinks, SinkSpec{
				Flow:     flow,
				Rule:     rule,
				Insecure: rng.Float64() < 0.25,
			})
		}
		// Framework heaviness is bimodal: most apps have shallow dispatch
		// structures, while a large minority bundle heavyweight SDKs whose
		// listener hierarchies make whole-app analysis explode. This is
		// the per-app variance behind Amandroid's 35% timeout rate.
		fanOut := 4 + rng.Intn(36)
		if rng.Float64() < 0.50 {
			fanOut = 120 + rng.Intn(280)
		}
		spec := Spec{
			Name:          fmt.Sprintf("com.corpus.app%03d", i),
			Seed:          opts.Seed + int64(i)*7919,
			SizeMB:        sizes[i] * opts.SizeScale,
			Sinks:         sinks,
			MultiDex:      sizes[i]*opts.SizeScale > 50,
			FanOut:        fanOut,
			DataDiversity: rng.Float64() * 0.3,
		}
		// Occasional whole-app analysis errors: ~5% of apps carry a
		// corrupted reachable method.
		if i%21 == 13 {
			spec.CorruptMethods = 1
		}
		specs[i] = spec
	}

	// The two subclassed-sink apps (paper's two false negatives).
	for _, i := range []int{17, 83} {
		if i < len(specs) {
			specs[i].Sinks = append(specs[i].Sinks, SinkSpec{
				Flow: FlowSubclassSink, Rule: android.RuleSSLAllowAll, Insecure: true,
			})
			specs[i].CorruptMethods = 0
		}
	}
	// The 121-sink outlier (paper Sec. VI-D).
	if len(specs) > 100 {
		out := &specs[100]
		out.SizeMB = 104.9 * opts.SizeScale
		var sinks []SinkSpec
		for s := 0; s < 121; s++ {
			sinks = append(sinks, SinkSpec{
				Flow:     FlowDirect,
				Rule:     android.RuleCryptoECB,
				Insecure: s%5 == 0,
			})
		}
		out.Sinks = sinks
		out.CorruptMethods = 0
	}
	return specs
}
