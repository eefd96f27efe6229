package dexdump

import (
	"hash/fnv"
	"sync"
	"testing"

	"backdroid/internal/appgen"
	"backdroid/internal/testapps"
)

// goldenBundles pins, per app of the benchgate corpus (16 apps, scale
// 0.15, seed 20200523), the FNV-64a of the rendered dump text and of the
// encoded bundle. The bundle is a persistent format shared by the disk
// cache and the in-memory store: a change to the disassembler, the index
// encoding or the manifest encoding moves these values, and must come
// with a CodecVersion bump.
var goldenBundles = []struct {
	app          string
	text, bundle uint64
}{
	{"com.corpus.app000", 0xbac1433fd1a8b9d0, 0x8bf20e68289a9abf},
	{"com.corpus.app001", 0x1059d9086cd08b4c, 0x6fe418068d5e4bb1},
	{"com.corpus.app002", 0xb547c5b03524e0cf, 0xd4439f598a1c6c35},
	{"com.corpus.app003", 0x1eaac96ecea9758f, 0x64156bc4df62ef04},
	{"com.corpus.app004", 0xf9e0944607aacdb3, 0xff71869832b01050},
	{"com.corpus.app005", 0x0c66dd94b9a109a1, 0x74c9f86fe8d4e4c6},
	{"com.corpus.app006", 0x9705031f45c57d8f, 0x6b260b0c01baf1f8},
	{"com.corpus.app007", 0xc6a574726fb7a30b, 0x322debef0c1d42d4},
	{"com.corpus.app008", 0x0a3606ed942d917f, 0xd1cd4e5b9d019579},
	{"com.corpus.app009", 0xed696e4f4f4e4bb3, 0x77426c51b1070f84},
	{"com.corpus.app010", 0x4225e76bd730a6bd, 0x2ba6c1834ffe7269},
	{"com.corpus.app011", 0xd95fbc49fa5c14e7, 0x266425123a348ba2},
	{"com.corpus.app012", 0xe98511bf4a68370e, 0x27bdf5a611adab44},
	{"com.corpus.app013", 0x5869896cca8532a8, 0xf64723106a76568d},
	{"com.corpus.app014", 0x9f8e46247e6e6cf0, 0x17c13ab63360f67e},
	{"com.corpus.app015", 0x52e02db8752919c5, 0x1c3c69bf06416b66},
}

func fnv64a(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// TestGoldenBundles renders the benchgate corpus and the fixture app and
// compares every app's dump text, DumpHash (the FNV-64a of that text by
// definition) and EncodeBundle bytes against the pinned values.
func TestGoldenBundles(t *testing.T) {
	specs := appgen.EvalCorpus(appgen.CorpusOptions{Apps: 16, SizeScale: 0.15, Seed: 20200523})
	if len(specs) != len(goldenBundles) {
		t.Fatalf("corpus has %d apps, %d pinned", len(specs), len(goldenBundles))
	}
	for i, spec := range specs {
		want := goldenBundles[i]
		app, _, err := appgen.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		if app.Name != want.app {
			t.Fatalf("app %d is %s, pinned %s", i, app.Name, want.app)
		}
		merged, err := app.MergedDex()
		if err != nil {
			t.Fatal(err)
		}
		text := Disassemble(merged)
		if got := fnv64a([]byte(text.String())); got != want.text {
			t.Errorf("%s: dump text hash %#016x, pinned %#016x", want.app, got, want.text)
		}
		if got := DumpHash(text); got != want.text {
			t.Errorf("%s: DumpHash %#016x, pinned %#016x", want.app, got, want.text)
		}
		data, err := EncodeBundle(text, BuildIndex(text), AppFingerprint(app.Dexes), nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := fnv64a(data); got != want.bundle {
			t.Errorf("%s: bundle hash %#016x, pinned %#016x", want.app, got, want.bundle)
		}
	}

	// The hand-written fixture app exercises shapes appgen does not emit.
	app, err := testapps.Fixture()
	if err != nil {
		t.Fatal(err)
	}
	merged, err := app.MergedDex()
	if err != nil {
		t.Fatal(err)
	}
	text := Disassemble(merged)
	if got, want := DumpHash(text), uint64(0xeccafb6156da3235); got != want {
		t.Errorf("fixture: DumpHash %#016x, pinned %#016x", got, want)
	}
	if got, want := len(text.String()), 13580; got != want {
		t.Errorf("fixture: dump is %d bytes, pinned %d", got, want)
	}
	if got, want := text.LineCount(), 305; got != want {
		t.Errorf("fixture: dump has %d lines, pinned %d", got, want)
	}
	data, err := EncodeBundle(text, BuildIndex(text), AppFingerprint(app.Dexes), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fnv64a(data), uint64(0xefbfb8ccc6a7b27d); got != want {
		t.Errorf("fixture: bundle hash %#016x, pinned %#016x", got, want)
	}
}

// goldenBenchDumps pins, per app of the wall-clock benchmark's corpus (24
// apps, scale 0.15, seed 20200523), the DumpHash and the FNV-64a of the
// encoded bundle, so the index tokenizer is pinned on the corpus the
// benchmark times, not only on the benchgate corpus above.
var goldenBenchDumps = []struct {
	app          string
	hash, bundle uint64
}{
	{"com.corpus.app000", 0xc458a187f53f1430, 0xb70da4839d0a2e10},
	{"com.corpus.app001", 0xef903957dce123d5, 0xb78a9af8f1fdeb01},
	{"com.corpus.app002", 0x16e171aa27c17664, 0x5260cab33015b14c},
	{"com.corpus.app003", 0x13a13144265ea479, 0xdff645740a8c7c44},
	{"com.corpus.app004", 0x1a70ce4d6241e34c, 0x46475423d4b9a114},
	{"com.corpus.app005", 0x9e417159655b665a, 0x052981128de10236},
	{"com.corpus.app006", 0x27bc71f3a61b5abf, 0x965e6cd792e539f9},
	{"com.corpus.app007", 0xfd83833a334ca308, 0x0c2312d26762b688},
	{"com.corpus.app008", 0x4ce51e8ea846f1ee, 0x4c9cdd4ad9fd1629},
	{"com.corpus.app009", 0x01675cc77b3d79b9, 0x35195561a98d5be3},
	{"com.corpus.app010", 0xf64d2c4fc5f2a1d8, 0x8f885dbeba2efcd5},
	{"com.corpus.app011", 0xadc5489b7501a4d5, 0x64712e689bd1befd},
	{"com.corpus.app012", 0xc9946f845066e993, 0x1afdd42f7a4197b5},
	{"com.corpus.app013", 0x8a8479940ceef426, 0xd8cb2a051264dcad},
	{"com.corpus.app014", 0x25c160729bfeba1f, 0x5f592b878f306a52},
	{"com.corpus.app015", 0x73cee2e2237ff221, 0x64de0a05b9c26fef},
	{"com.corpus.app016", 0xf48beed7cf74acc0, 0x1dabcb3f29b0bdcc},
	{"com.corpus.app017", 0xd79c2605d6e418ed, 0x5d3ca18493779974},
	{"com.corpus.app018", 0x97cf721210dc42de, 0x77a9ba0ddd59b18d},
	{"com.corpus.app019", 0x2f222b19bb1ace85, 0xf63404759ab261c1},
	{"com.corpus.app020", 0x3a45bae4b3f23e4c, 0x9bdb5521fe0b517f},
	{"com.corpus.app021", 0xd908e102d5a633da, 0x5bfc05b86cc53a2f},
	{"com.corpus.app022", 0xaadfa3391fd859b7, 0x24cb804363ffd13d},
	{"com.corpus.app023", 0xc319cc4c9e3ddbf9, 0xf35413adead6e96c},
}

// benchApp is one rendered app of the wall-clock benchmark's corpus.
type benchApp struct {
	name        string
	text        *Text
	fingerprint uint64 // AppFingerprint of its dex files
}

// benchCorpus renders the wall-clock benchmark's corpus once per test
// binary; the golden, oracle and postings tests and BenchmarkBuildIndex
// share it.
var benchCorpus = sync.OnceValues(func() ([]benchApp, error) {
	specs := appgen.EvalCorpus(appgen.CorpusOptions{Apps: 24, SizeScale: 0.15, Seed: 20200523})
	out := make([]benchApp, len(specs))
	for i, spec := range specs {
		app, _, err := appgen.Generate(spec)
		if err != nil {
			return nil, err
		}
		merged, err := app.MergedDex()
		if err != nil {
			return nil, err
		}
		out[i] = benchApp{app.Name, Disassemble(merged), AppFingerprint(app.Dexes)}
	}
	return out, nil
})

func loadBenchCorpus(tb testing.TB) []benchApp {
	tb.Helper()
	apps, err := benchCorpus()
	if err != nil {
		tb.Fatal(err)
	}
	return apps
}

func TestGoldenBenchCorpusDumps(t *testing.T) {
	apps := loadBenchCorpus(t)
	if len(apps) != len(goldenBenchDumps) {
		t.Fatalf("corpus has %d apps, %d pinned", len(apps), len(goldenBenchDumps))
	}
	for i, app := range apps {
		want := goldenBenchDumps[i]
		if app.name != want.app {
			t.Fatalf("app %d is %s, pinned %s", i, app.name, want.app)
		}
		if got := DumpHash(app.text); got != want.hash {
			t.Errorf("%s: DumpHash %#016x, pinned %#016x", want.app, got, want.hash)
		}
		data, err := EncodeBundle(app.text, BuildIndex(app.text), app.fingerprint, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := fnv64a(data); got != want.bundle {
			t.Errorf("%s: bundle hash %#016x, pinned %#016x", want.app, got, want.bundle)
		}
	}
}
