package dexdump

import (
	"hash/fnv"
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

// goldenBenchDumps pins the DumpHash of every app of the wall-clock
// benchmark's corpus (24 apps, scale 0.15, seed 20200523).
var goldenBenchDumps = []struct {
	app  string
	hash uint64
}{
	{"com.corpus.app000", 0xc458a187f53f1430},
	{"com.corpus.app001", 0xef903957dce123d5},
	{"com.corpus.app002", 0x16e171aa27c17664},
	{"com.corpus.app003", 0x13a13144265ea479},
	{"com.corpus.app004", 0x1a70ce4d6241e34c},
	{"com.corpus.app005", 0x9e417159655b665a},
	{"com.corpus.app006", 0x27bc71f3a61b5abf},
	{"com.corpus.app007", 0xfd83833a334ca308},
	{"com.corpus.app008", 0x4ce51e8ea846f1ee},
	{"com.corpus.app009", 0x01675cc77b3d79b9},
	{"com.corpus.app010", 0xf64d2c4fc5f2a1d8},
	{"com.corpus.app011", 0xadc5489b7501a4d5},
	{"com.corpus.app012", 0xc9946f845066e993},
	{"com.corpus.app013", 0x8a8479940ceef426},
	{"com.corpus.app014", 0x25c160729bfeba1f},
	{"com.corpus.app015", 0x73cee2e2237ff221},
	{"com.corpus.app016", 0xf48beed7cf74acc0},
	{"com.corpus.app017", 0xd79c2605d6e418ed},
	{"com.corpus.app018", 0x97cf721210dc42de},
	{"com.corpus.app019", 0x2f222b19bb1ace85},
	{"com.corpus.app020", 0x3a45bae4b3f23e4c},
	{"com.corpus.app021", 0xd908e102d5a633da},
	{"com.corpus.app022", 0xaadfa3391fd859b7},
	{"com.corpus.app023", 0xc319cc4c9e3ddbf9},
}

func TestGoldenBenchCorpusDumps(t *testing.T) {
	specs := appgen.EvalCorpus(appgen.CorpusOptions{Apps: 24, SizeScale: 0.15, Seed: 20200523})
	if len(specs) != len(goldenBenchDumps) {
		t.Fatalf("corpus has %d apps, %d pinned", len(specs), len(goldenBenchDumps))
	}
	for i, spec := range specs {
		want := goldenBenchDumps[i]
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
		if got := DumpHash(Disassemble(merged)); got != want.hash {
			t.Errorf("%s: DumpHash %#016x, pinned %#016x", want.app, got, want.hash)
		}
	}
}
