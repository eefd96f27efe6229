package dexdump

import (
	"hash/fnv"
	"sync"
	"testing"

	"backdroid/internal/appgen"
	"backdroid/internal/dex"
	"backdroid/internal/testapps"
)

// goldenBundles pins, per app of the benchgate corpus (16 apps, scale
// 0.15, seed 20200523), the FNV-64a of the rendered dump text, the
// text's DumpHash (the codec's content sum) and the FNV-64a of the
// encoded bundle. The bundle is a persistent format shared by the disk
// cache and the in-memory store: a change to the disassembler, the
// content sums, the index encoding or the manifest encoding moves these
// values, and must come with a CodecVersion bump. The text pins are
// independent of the codec: they move only when the dump bytes do.
var goldenBundles = []struct {
	app               string
	text, sum, bundle uint64
}{
	{"com.corpus.app000", 0xbac1433fd1a8b9d0, 0x4dab7d835008e8bd, 0xe2acaa2f30c291a9},
	{"com.corpus.app001", 0x1059d9086cd08b4c, 0xd17ad55877e1102d, 0x97c86424462814d8},
	{"com.corpus.app002", 0xb547c5b03524e0cf, 0x2d52d5a8ce33c8ec, 0x54700617f4bd98f6},
	{"com.corpus.app003", 0x1eaac96ecea9758f, 0x15d59dfb19de8354, 0xc3413e12a4667fcf},
	{"com.corpus.app004", 0xf9e0944607aacdb3, 0x6ac9cb2ced58a59f, 0x8c8d2376b00a3b06},
	{"com.corpus.app005", 0x0c66dd94b9a109a1, 0xe628a5051e28e5f7, 0xe258cf2ba82e7777},
	{"com.corpus.app006", 0x9705031f45c57d8f, 0xfc18fb12836df2c6, 0xa1c65e29249b5f32},
	{"com.corpus.app007", 0xc6a574726fb7a30b, 0xd42ac2572be326d7, 0xb07bb23f49b93282},
	{"com.corpus.app008", 0x0a3606ed942d917f, 0xb26911ae11b5334a, 0xf47995cbdb7d2628},
	{"com.corpus.app009", 0xed696e4f4f4e4bb3, 0xf125638fea998ade, 0xcd2f3c2b7f88e51c},
	{"com.corpus.app010", 0x4225e76bd730a6bd, 0x8da835118853cf59, 0x34b34e2235af3447},
	{"com.corpus.app011", 0xd95fbc49fa5c14e7, 0x38e47076242c927f, 0xf42972e199c4d880},
	{"com.corpus.app012", 0xe98511bf4a68370e, 0x57ece249a520cd9f, 0x83ec795602e28e2b},
	{"com.corpus.app013", 0x5869896cca8532a8, 0xb34b4ecbe9161f40, 0x23e7427348541d96},
	{"com.corpus.app014", 0x9f8e46247e6e6cf0, 0x351861b1d98e6292, 0x1cbc7715c3fb6081},
	{"com.corpus.app015", 0x52e02db8752919c5, 0xcbd7dafd53b8ee87, 0xdbb0960e04a9c9f6},
}

func fnv64a(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// TestGoldenBundles renders the benchgate corpus and the fixture app and
// compares every app's dump text, DumpHash and EncodeBundle bytes against
// the pinned values.
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
		if got := DumpHash(text); got != want.sum {
			t.Errorf("%s: DumpHash %#016x, pinned %#016x", want.app, got, want.sum)
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
	if got, want := fnv64a([]byte(text.String())), uint64(0xeccafb6156da3235); got != want {
		t.Errorf("fixture: dump text hash %#016x, pinned %#016x", got, want)
	}
	if got, want := DumpHash(text), uint64(0x67de51732c3500e4); got != want {
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
	if got, want := fnv64a(data), uint64(0xc5168f7210019e6b); got != want {
		t.Errorf("fixture: bundle hash %#016x, pinned %#016x", got, want)
	}
}

// goldenBenchDumps pins, per app of the wall-clock benchmark's corpus (24
// apps, scale 0.15, seed 20200523), the FNV-64a of the dump text, its
// DumpHash and the FNV-64a of the encoded bundle, so the index tokenizer
// is pinned on the corpus the benchmark times, not only on the benchgate
// corpus above.
var goldenBenchDumps = []struct {
	app               string
	text, sum, bundle uint64
}{
	{"com.corpus.app000", 0xc458a187f53f1430, 0x3bf63dbad249369f, 0x7c58169639bb6ad8},
	{"com.corpus.app001", 0xef903957dce123d5, 0xe6931e558c053fb2, 0x2a0ef6697dccd2b5},
	{"com.corpus.app002", 0x16e171aa27c17664, 0x3e403ca7921985b0, 0x05fe3d200d68e92e},
	{"com.corpus.app003", 0x13a13144265ea479, 0xb529924d722379b7, 0xcc7474272e074c1a},
	{"com.corpus.app004", 0x1a70ce4d6241e34c, 0xb40375ca1732101d, 0xb2ddc06f6d2e4a1f},
	{"com.corpus.app005", 0x9e417159655b665a, 0x4c2ba1aec4aa5fff, 0x7fb4b950a7d87f33},
	{"com.corpus.app006", 0x27bc71f3a61b5abf, 0x07983afb8718b2c9, 0x2f8b96c85041db54},
	{"com.corpus.app007", 0xfd83833a334ca308, 0xb8f221ac2569b0af, 0x183d410d3f785253},
	{"com.corpus.app008", 0x4ce51e8ea846f1ee, 0x26ccc61cd1d0a68a, 0x866cbff268d0cb23},
	{"com.corpus.app009", 0x01675cc77b3d79b9, 0x6e02a4e2668994fc, 0xa48245838d6c3d6b},
	{"com.corpus.app010", 0xf64d2c4fc5f2a1d8, 0x6743dcc0a238dfdf, 0x61e0e4b9ba927486},
	{"com.corpus.app011", 0xadc5489b7501a4d5, 0xb05508c273610a26, 0xe6a95b97b4a807c7},
	{"com.corpus.app012", 0xc9946f845066e993, 0x9d81737793522974, 0x06cf1f27286f7f9a},
	{"com.corpus.app013", 0x8a8479940ceef426, 0x8e0b5d55bc52300c, 0x664c9654e17d5fee},
	{"com.corpus.app014", 0x25c160729bfeba1f, 0x1a353b72aa8cda44, 0x6b8d06bb84609756},
	{"com.corpus.app015", 0x73cee2e2237ff221, 0xe67dd9ca1ae3dfcb, 0x54d8380e12a77085},
	{"com.corpus.app016", 0xf48beed7cf74acc0, 0x1bbe79026d2606cb, 0x998a50f0750092c5},
	{"com.corpus.app017", 0xd79c2605d6e418ed, 0xe11156789202311e, 0xefce94c238834016},
	{"com.corpus.app018", 0x97cf721210dc42de, 0x0f8b1acb69435860, 0xae55edcdd071b5ba},
	{"com.corpus.app019", 0x2f222b19bb1ace85, 0x3826877967b74e0d, 0x5da4939a5c57d533},
	{"com.corpus.app020", 0x3a45bae4b3f23e4c, 0xbc7a9dd1c8a48488, 0xd8931cddf2b9f4c1},
	{"com.corpus.app021", 0xd908e102d5a633da, 0x4664aaa0052ab854, 0xb4a6744fc375caf6},
	{"com.corpus.app022", 0xaadfa3391fd859b7, 0xb1728ecabd3e5790, 0x613d6812c4b4b4ef},
	{"com.corpus.app023", 0xc319cc4c9e3ddbf9, 0x5684c0104712f2b4, 0x63eb6d458ed9856f},
}

// benchApp is one rendered app of the wall-clock benchmark's corpus.
type benchApp struct {
	name        string
	text        *Text
	fingerprint uint64   // AppFingerprint of its dex files
	dexes       [][]byte // its encoded dex files
}

// benchCorpus renders the wall-clock benchmark's corpus once per test
// binary; the golden, oracle and postings tests and BenchmarkBuildIndex
// share it, as do the dex load benchmarks.
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
		out[i] = benchApp{app.Name, Disassemble(merged), AppFingerprint(app.Dexes), nil}
		for _, d := range app.Dexes {
			out[i].dexes = append(out[i].dexes, dex.Encode(d))
		}
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
		if got := fnv64a([]byte(app.text.String())); got != want.text {
			t.Errorf("%s: dump text hash %#016x, pinned %#016x", want.app, got, want.text)
		}
		if got := DumpHash(app.text); got != want.sum {
			t.Errorf("%s: DumpHash %#016x, pinned %#016x", want.app, got, want.sum)
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
