package dexdump

import (
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"

	"backdroid/internal/apk"
	"backdroid/internal/appgen"
	"backdroid/internal/dex"
	"backdroid/internal/testapps"
)

// openApp builds an app whose dex files are opened from encoded bytes,
// not decoded, as apk.Read leaves them.
func openApp(tb testing.TB, dexes ...[]byte) *apk.App {
	tb.Helper()
	files := make([]*dex.File, len(dexes))
	for i, data := range dexes {
		f, err := dex.Open(data)
		if err != nil {
			tb.Fatal(err)
		}
		files[i] = f
	}
	return apk.New("com.example.fused", nil, files...)
}

// eagerRender decodes every dex file eagerly, merges them and renders
// the merged file: the oracle of the fused walk.
func eagerRender(tb testing.TB, dexes ...[]byte) *Text {
	tb.Helper()
	merged, err := openApp(tb, dexes...).MergedDex()
	if err != nil {
		tb.Fatal(err)
	}
	want, err := Render(merged)
	if err != nil {
		tb.Fatal(err)
	}
	return want
}

// checkSameText requires two dumps to agree field by field: the text,
// the line ends, the method table and its runs, the class spans and the
// skip table.
func checkSameText(t *testing.T, label string, got, want *Text) {
	t.Helper()
	if got.full != want.full {
		t.Errorf("%s: the text differs", label)
	}
	if !slices.Equal(got.ends, want.ends) {
		t.Errorf("%s: the line ends differ", label)
	}
	if !reflect.DeepEqual(got.methods, want.methods) {
		t.Errorf("%s: the method tables differ", label)
	}
	if !slices.Equal(got.runs, want.runs) {
		t.Errorf("%s: the method runs differ", label)
	}
	if !slices.Equal(got.spans, want.spans) {
		t.Errorf("%s: the class spans differ", label)
	}
	if !slices.Equal(got.plain, want.plain) {
		t.Errorf("%s: the skip tables differ", label)
	}
}

// checkFused renders the dex files in one walk and requires the dump of
// eagerRender, and every body of the merged file still pending.
func checkFused(t *testing.T, label string, dexes ...[]byte) *Text {
	t.Helper()
	merged, got, err := RenderApp(openApp(t, dexes...))
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	checkSameText(t, label, got, eagerRender(t, dexes...))
	for _, c := range merged.Classes() {
		for _, m := range c.Methods {
			if m.BodyDecoded() {
				t.Fatalf("%s: %s decoded by the fused walk", label, m.Ref)
			}
		}
	}
	return got
}

// encodeApp encodes each dex file of an app built in memory.
func encodeApp(app *apk.App) [][]byte {
	var out [][]byte
	for _, d := range app.Dexes {
		out = append(out, dex.Encode(d))
	}
	return out
}

// TestFusedRenderMatchesRender: the fused walk renders the bench corpus,
// the fixture and heavy-tail's outlier to exactly what Render makes of
// the eagerly decoded files, and leaves every body pending.
func TestFusedRenderMatchesRender(t *testing.T) {
	for _, app := range loadBenchCorpus(t) {
		checkSameText(t, app.name, checkFused(t, app.name, app.dexes...), app.text)
	}
	fixture, err := testapps.Fixture()
	if err != nil {
		t.Fatal(err)
	}
	checkFused(t, "fixture", encodeApp(fixture)...)
	outlier, _, err := appgen.Generate(appgen.HeavyTailCorpus(appgen.HeavyTailOptions{Seed: 20200523})[0])
	if err != nil {
		t.Fatal(err)
	}
	checkFused(t, "outlier", encodeApp(outlier)...)
}

// disorderedFile builds what the generated apps never hold: classes
// whose virtual methods come before direct ones in declaration order,
// interleaved, with and without interfaces, beside a class with only
// virtual methods, one with only direct ones, one with none, and an
// abstract method that still carries a body.
func disorderedFile(tb testing.TB) *dex.File {
	tb.Helper()
	f := dex.NewFile()
	add := func(c *dex.Class) {
		if err := f.AddClass(c); err != nil {
			tb.Fatal(err)
		}
	}
	callee := dex.NewMethodRef("com.example.Util", "log", dex.Void, dex.StringT)
	body := func(mb *dex.MethodBuilder, s string) *dex.ClassBuilder {
		r := mb.Reg()
		return mb.ConstString(r, s).InvokeStatic(callee, r).ReturnVoid().Done()
	}

	mixed := dex.NewClass("com.example.Mixed").Implements("java.lang.Runnable")
	body(mixed.Method("run", dex.Void), "v0")
	body(mixed.StaticMethod("first", dex.Void), "d0")
	body(mixed.Method("second", dex.Void), "v1")
	body(mixed.Constructor(), "d1")
	mixed.AbstractMethod("later", dex.Int, dex.Long)
	body(mixed.PrivateMethod("helper", dex.Void), "d2")
	add(mixed.Build())

	add(body(dex.NewClass("com.example.Util").StaticMethod("log", dex.Void, dex.StringT), "log").Build())
	add(dex.NewClass("com.example.Empty").Build())
	onlyVirtual := dex.NewClass("com.example.OnlyVirtual")
	body(onlyVirtual.Method("a", dex.Void), "a")
	body(onlyVirtual.Method("b", dex.Void), "b")
	add(onlyVirtual.Build())

	tail := dex.NewClass("com.example.VirtualFirst")
	body(tail.Method("v", dex.Void), "v")
	body(tail.StaticInitializer(), "clinit")
	abstract := dex.NewClass("com.example.AbstractBody")
	body(abstract.Method("shell", dex.Void), "never printed")
	abstract.AbstractMethod("plain", dex.Void)
	c := abstract.Build()
	c.Methods[0].Flags |= dex.AccAbstract
	if len(c.Methods[0].Code) == 0 {
		tb.Fatal("the abstract method has no body")
	}
	add(tail.Build())
	add(c)
	return f
}

// TestFusedRenderHandMadeDex covers what the benchmark apps never hit:
// direct methods after virtual ones, an abstract method with a body
// (checked, never printed) and a two-dex container, whose classes number
// on across the files as in the merged file.
func TestFusedRenderHandMadeDex(t *testing.T) {
	disordered := dex.Encode(disorderedFile(t))
	text := checkFused(t, "disordered", disordered)
	if strings.Contains(text.String(), "never printed") {
		t.Error("the abstract method's body was rendered")
	}
	// Mixed renders its direct methods first, numbered in their order.
	s := text.String()
	first, helper, run := strings.Index(s, "'first'"), strings.Index(s, "'helper'"), strings.Index(s, "'run'")
	if !(first < helper && helper < run) || strings.Count(s, "  Virtual methods   -") != 6 {
		t.Errorf("Mixed's groups are out of order:\n%s", s[:run])
	}

	sample := dex.Encode(sampleFile(t))
	two := checkFused(t, "two dex files", sample, disordered)
	if len(two.ClassSpans()) != 2+6 || !strings.Contains(two.String(), "Class #7 ") {
		t.Errorf("two-dex dump has %d classes, want them numbered 0 to 7", len(two.ClassSpans()))
	}
	for seed := int64(1); seed <= 4; seed++ {
		checkFused(t, "random pair", dex.Encode(randomDex(seed)), sample)
	}
}

// hostileFile returns a dex file whose one class renders to well over
// 64 KiB from one pool string.
func hostileFile(tb testing.TB) *dex.File {
	tb.Helper()
	long := strings.Repeat("x", 1<<12)
	mb := dex.NewClass("com.example.Spray").StaticMethod("spray", dex.Void)
	for range 32 {
		mb.ConstString(0, long)
	}
	f := dex.NewFile()
	if err := f.AddClass(mb.ReturnVoid().Done().Build()); err != nil {
		tb.Fatal(err)
	}
	return f
}

// TestFusedRenderErrorPrecedence: the walk keeps checking after the dump
// passed its limit, so a hostile body later in the app still fails with
// its decode error, a duplicate class across dex files with the merge
// error, and only a well-formed app with ErrDumpTooLarge — each the
// error MergedTables and then Render would give.
func TestFusedRenderErrorPrecedence(t *testing.T) {
	const limit = 1 << 16
	spray := dex.Encode(hostileFile(t))
	_, badCode, err := testapps.BadCodeContainer()
	if err != nil {
		t.Fatal(err)
	}
	// The same spray followed, in the same file, by a class whose one
	// method invokes without a method ref.
	sprayed := hostileFile(t)
	mb := dex.NewClass("com.example.Hostile").StaticMethod("run", dex.Void)
	hostile := mb.ReturnVoid().Done().Build()
	hostile.Methods[0].Code = append([]dex.Instruction{{Op: dex.OpInvokeStatic}}, hostile.Methods[0].Code...)
	if err := sprayed.AddClass(hostile); err != nil {
		t.Fatal(err)
	}
	sprayThenBad := dex.Encode(sprayed)
	// oracle is MergedTables followed by Render at limit.
	oracle := func(dexes ...[]byte) error {
		merged, err := openApp(t, dexes...).MergedTables()
		if err == nil {
			_, err = render(merged, limit)
		}
		return err
	}
	for _, tc := range []struct {
		name  string
		dexes [][]byte
		want  string
	}{
		{"too large", [][]byte{spray}, ErrDumpTooLarge.Error()},
		{"hostile body after the limit", [][]byte{spray, badCode}, "apk: classes2.dex: dex: "},
		{"hostile body in the file past the limit", [][]byte{sprayThenBad}, "apk: classes.dex: dex: com.example.Hostile.run instruction 0"},
		{"hostile body first", [][]byte{badCode, spray}, "apk: classes.dex: dex: "},
		{"duplicate class after the limit", [][]byte{spray, spray}, "apk: merging classes2.dex: dex: duplicate class"},
	} {
		_, text, err := renderApp(openApp(t, tc.dexes...), limit)
		if err == nil || !strings.HasPrefix(err.Error(), tc.want) || text != nil {
			t.Errorf("%s: err %v, want %q", tc.name, err, tc.want)
			continue
		}
		if want := oracle(tc.dexes...); want == nil || err.Error() != want.Error() {
			t.Errorf("%s: err %v, MergedTables then Render %v", tc.name, err, want)
		}
		if tc.want == ErrDumpTooLarge.Error() && !errors.Is(err, ErrDumpTooLarge) {
			t.Errorf("%s: err %v is not ErrDumpTooLarge", tc.name, err)
		}
	}
}

// TestFusedRenderFallsBack: a dex file that something else loaded first
// is rendered by Render over the merged file, here with the first, the
// second or both files loaded, eagerly or by table.
func TestFusedRenderFallsBack(t *testing.T) {
	dexes := [][]byte{dex.Encode(sampleFile(t)), dex.Encode(disorderedFile(t))}
	want := eagerRender(t, dexes...)
	for _, tc := range []struct {
		name   string
		loaded []int
		load   func(*dex.File) error
	}{
		{"first eager", []int{0}, (*dex.File).Load},
		{"second by table", []int{1}, (*dex.File).LoadTables},
		{"both by table", []int{0, 1}, (*dex.File).LoadTables},
	} {
		app := openApp(t, dexes...)
		for _, i := range tc.loaded {
			if err := tc.load(app.Dexes[i]); err != nil {
				t.Fatal(err)
			}
		}
		_, got, err := RenderApp(app)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		checkSameText(t, tc.name, got, want)
	}
}
