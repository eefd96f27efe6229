package dexdump

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"backdroid/internal/dex"
	"backdroid/internal/testapps"
)

// indexFixture builds a small two-class file exercising every token family
// the index extracts.
func indexFixture(t *testing.T) (*Text, *Index) {
	t.Helper()
	f := dex.NewFile()
	objInit := dex.NewMethodRef("java.lang.Object", "<init>", dex.Void)
	helperField := dex.NewFieldRef("com.idx.Helper", "state", dex.Int)

	helper := dex.NewClass("com.idx.Helper").Field("state", dex.Int)
	hc := helper.Constructor()
	hc.InvokeDirect(objInit, hc.This()).ReturnVoid().Done()
	work := helper.Method("work", dex.Void)
	r := work.Reg()
	work.IGet(r, work.This(), helperField).
		IPut(r, work.This(), helperField).
		ReturnVoid().Done()
	if err := f.AddClass(helper.Build()); err != nil {
		t.Fatal(err)
	}

	main := dex.NewClass("com.idx.Main")
	mm := main.Method("main", dex.Void)
	h := mm.Reg()
	helperInit := dex.NewMethodRef("com.idx.Helper", "<init>", dex.Void)
	mm.New(h, "com.idx.Helper").
		InvokeDirect(helperInit, h).
		InvokeVirtual(dex.NewMethodRef("com.idx.Helper", "work", dex.Void), h).
		ConstString(mm.Reg(), "AES/ECB").
		ConstClass(mm.Reg(), "com.idx.Helper").
		ReturnVoid().Done()
	if err := f.AddClass(main.Build()); err != nil {
		t.Fatal(err)
	}

	text := Disassemble(f)
	return text, BuildIndex(text)
}

func linesMatching(text *Text, pred func(string) bool) []int32 {
	var out []int32
	for i, line := range textLines(text) {
		if pred(line) {
			out = append(out, int32(i))
		}
	}
	return out
}

func equalPostings(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestIndexCoversAllTokenFamilies(t *testing.T) {
	text, idx := indexFixture(t)

	if idx.Lines() != text.LineCount() {
		t.Errorf("index lines = %d, dump lines = %d", idx.Lines(), text.LineCount())
	}
	if idx.Postings() == 0 {
		t.Fatal("empty index for non-empty dump")
	}

	if got := idx.InvokeBySig("Lcom/idx/Helper;.work:()V"); len(got) != 1 {
		t.Errorf("invoke postings = %v", got)
	}
	if got := idx.InvokeByNamePrefix(".work:"); len(got) != 1 {
		t.Errorf("invoke-by-name postings = %v", got)
	}
	if got := idx.CtorByPrefix("Lcom/idx/Helper;.<init>:"); len(got) != 1 {
		t.Errorf("ctor postings = %v (the allocation site in main)", got)
	}
	if got := idx.CtorByPrefix("Ljava/lang/Object;.<init>:"); len(got) != 1 {
		t.Errorf("object ctor postings = %v (Helper's ctor calls super)", got)
	}
	if got := idx.ConstClass("Lcom/idx/Helper;"); len(got) != 1 {
		t.Errorf("const-class postings = %v", got)
	}
	if got := idx.ConstString("AES/ECB"); len(got) != 1 {
		t.Errorf("const-string postings = %v", got)
	}
	if got := idx.FieldBySig("Lcom/idx/Helper;.state:I"); len(got) != 2 {
		t.Errorf("field postings = %v (one iget + one iput)", got)
	}
	if got := idx.ConstString("missing"); got != nil {
		t.Errorf("phantom const-string postings = %v", got)
	}
}

func TestIndexClassUseMatchesGrep(t *testing.T) {
	text, idx := indexFixture(t)
	for _, desc := range []string{"Lcom/idx/Helper;", "Lcom/idx/Main;", "Ljava/lang/Object;"} {
		want := linesMatching(text, func(line string) bool {
			return strings.Contains(line, desc)
		})
		got := idx.ClassUse(desc)
		if !equalPostings(got, want) {
			t.Errorf("class-use %s: postings %v, grep %v", desc, got, want)
		}
	}
}

// indexMaps names the seven token maps of x.
func indexMaps(x *Index) map[string]map[string][]int32 {
	return map[string]map[string][]int32{
		"invokeBySig":   x.maps[famInvokeBySig],
		"invokeByNameP": x.maps[famInvokeByNameP],
		"ctorByPrefix":  x.maps[famCtorByPrefix],
		"constClass":    x.maps[famConstClass],
		"constString":   x.maps[famConstString],
		"fieldBySig":    x.maps[famFieldBySig],
		"classUse":      x.maps[famClassUse],
	}
}

// indexSides names the four side lists of x.
func indexSides(x *Index) map[string][]int32 {
	return map[string][]int32{
		"oddStrings": x.oddStrings,
		"oddFields":  x.oddFields,
		"oddCtors":   x.oddCtors,
		"oddInvokes": x.oddInvokes,
	}
}

func TestIndexPostingsAscendingUnique(t *testing.T) {
	_, fixture := indexFixture(t)
	indexes := map[string]*Index{"fixture": fixture}
	for _, app := range loadBenchCorpus(t) {
		indexes[app.name] = BuildIndex(app.text)
	}
	for name, idx := range indexes {
		check := func(list string, p []int32) {
			for i := 1; i < len(p); i++ {
				if p[i] <= p[i-1] {
					t.Errorf("%s: %s postings not strictly ascending: %v", name, list, p)
					return
				}
			}
		}
		for family, m := range indexMaps(idx) {
			for tok, p := range m {
				check(family+"["+tok+"]", p)
			}
		}
		for side, p := range indexSides(idx) {
			check(side, p)
		}
	}
}

// classesFixture builds a file of six classes across several packages,
// each with a constructor, a string literal and a class literal.
func classesFixture(t testing.TB) (*dex.File, *Text) {
	t.Helper()
	f := dex.NewFile()
	objInit := dex.NewMethodRef("java.lang.Object", "<init>", dex.Void)
	for i, name := range []string{
		"com.alpha.One", "com.alpha.Two", "com.beta.Three",
		"org.gamma.Four", "org.gamma.sub.Five", "net.delta.Six",
	} {
		c := dex.NewClass(name)
		ctor := c.Constructor()
		ctor.InvokeDirect(objInit, ctor.This()).ReturnVoid().Done()
		m := c.Method("work", dex.Void)
		r := m.Reg()
		m.ConstString(r, fmt.Sprintf("payload-%d", i)).
			ConstClass(m.Reg(), "com.alpha.One").
			ReturnVoid().Done()
		if err := f.AddClass(c.Build()); err != nil {
			t.Fatal(err)
		}
	}
	return f, Disassemble(f)
}

// lookups exercises every Index lookup with tokens present in the
// fixture plus misses.
func lookups(src *Index) map[string][]int32 {
	out := make(map[string][]int32)
	out["invoke"] = src.InvokeBySig("Ljava/lang/Object;.<init>:()V")
	out["invoke-prefix"] = src.InvokeByNamePrefix(".<init>:")
	out["invoke-prefix-miss"] = src.InvokeByNamePrefix(".nosuch:")
	out["ctor"] = src.CtorByPrefix("Ljava/lang/Object;.<init>:")
	out["const-class"] = src.ConstClass("Lcom/alpha/One;")
	out["const-string"] = src.ConstString("payload-3")
	out["field"] = src.FieldBySig("Lcom/alpha/One;.f:I")
	out["class-use"] = src.ClassUse("Lcom/alpha/One;")
	out["class-use-2"] = src.ClassUse("Lorg/gamma/sub/Five;")
	out["class-use-miss"] = src.ClassUse("Lno/such/Class;")
	return out
}

func TestClassSpansTileDump(t *testing.T) {
	f, text := classesFixture(t)
	spans := text.ClassSpans()
	if len(spans) != len(f.Classes()) {
		t.Fatalf("spans = %d, classes = %d", len(spans), len(f.Classes()))
	}
	next := 0
	for i, sp := range spans {
		if sp.Start != next {
			t.Errorf("span %d starts at %d, want %d (spans must tile)", i, sp.Start, next)
		}
		if sp.End <= sp.Start {
			t.Errorf("span %d empty: [%d,%d)", i, sp.Start, sp.End)
		}
		if sp.Name != f.Classes()[i].Name {
			t.Errorf("span %d name = %s, want %s", i, sp.Name, f.Classes()[i].Name)
		}
		next = sp.End
	}
	if next != text.LineCount() {
		t.Errorf("spans end at %d, dump has %d lines", next, text.LineCount())
	}
}

func TestInvokeByNamePrefixCoversQuotedLiterals(t *testing.T) {
	f := dex.NewFile()
	c := dex.NewClass("com.spoof.Logger")
	m := c.Method("log", dex.Void)
	m.ConstString(m.Reg(), "saw invoke-virtual {v0}, Lx/Y;.startActivity:(L)V").
		ReturnVoid().Done()
	if err := f.AddClass(c.Build()); err != nil {
		t.Fatal(err)
	}
	text := Disassemble(f)
	idx := BuildIndex(text)
	got := idx.InvokeByNamePrefix(".startActivity:")
	want := linesMatching(text, func(line string) bool {
		return strings.Contains(line, "invoke-") && strings.Contains(line, ".startActivity:")
	})
	if len(want) == 0 {
		t.Fatal("spoof literal did not fire")
	}
	// Candidates must be a superset of the linear matches.
	have := make(map[int32]bool, len(got))
	for _, n := range got {
		have[n] = true
	}
	for _, n := range want {
		if !have[n] {
			t.Errorf("linear match line %d missing from prefix candidates %v", n, got)
		}
	}
}

// addLineOracle is the substring-search line tokenizer the single byte
// pass replaced, kept verbatim (but for its two posting helpers) as the
// reference addLine must match exactly.
func addLineOracle(x *Index, n int32, line string) {
	// Class-descriptor occurrences anywhere on the line: every "L...;"
	// token, wherever it starts. A descriptor contains no ';', so if one
	// occurs at position i the first ';' at or after i closes it exactly;
	// spurious tokens (an 'L' that is not a descriptor start) only bloat
	// unqueried postings lists and are filtered by Match on lookup.
	for i := 0; i < len(line); i++ {
		if line[i] != 'L' {
			continue
		}
		j := strings.IndexByte(line[i:], ';')
		if j < 0 {
			break // no ';' remains, no further descriptor can close
		}
		oracleAdd(x, famClassUse, line[i:i+j+1], n)
	}

	// Operand tokens live after the last ", " of an instruction line
	// (registers precede them); signatures and descriptors contain no
	// ", ", so the tail is the whole operand.
	tail := ""
	if k := strings.LastIndex(line, ", "); k >= 0 {
		tail = line[k+2:]
	}
	// Double quotes appear only in const-string literals; a quoted line is
	// a literal whose content can accidentally satisfy Contains-style
	// predicates (see the side lists below).
	quoted := strings.IndexByte(line, '"') >= 0

	// The family checks below are deliberately independent, not exclusive:
	// the linear grep predicates are substring tests, so a single line can
	// satisfy several families at once (e.g. a string literal whose value
	// contains a mnemonic). Indexing a line under a family it only
	// accidentally belongs to costs a posting; missing one would cost a
	// hit.
	if strings.Contains(line, "invoke-") && tail != "" {
		oracleAdd(x, famInvokeBySig, tail, n)
		// The ".name:" prefix (descriptor-independent, the two-time ICC
		// search's first pass) begins at the dot after the class
		// descriptor and ends at the colon after the name.
		if p := strings.Index(tail, ";."); p >= 0 {
			needle := tail[p+1:]
			if c := strings.IndexByte(needle, ':'); c >= 0 {
				oracleAdd(x, famInvokeByNameP, needle[:c+1], n)
			}
		}
		// Constructor prefix "Lcls;.<init>:" — everything up to and
		// including the colon that separates name from descriptor.
		if strings.Contains(line, "invoke-direct") {
			if c := strings.IndexByte(tail, ':'); c >= 0 {
				oracleAdd(x, famCtorByPrefix, tail[:c+1], n)
			}
		}
		// A quoted line "containing" invoke- is a string literal that could
		// embed any ".name:" needle anywhere, which the linear Contains grep
		// would match; every prefix lookup must consider it.
		if quoted {
			oracleAddSide(x, &x.oddInvokes, n)
		}
	}
	if strings.Contains(line, "const-class") && tail != "" {
		oracleAdd(x, famConstClass, tail, n)
	}
	if strings.Contains(line, "const-string") {
		i := strings.IndexByte(line, '"')
		j := strings.LastIndexByte(line, '"')
		if i >= 0 && j > i {
			val := line[i+1 : j]
			oracleAdd(x, famConstString, val, n)
			// Literals rendered with escapes can satisfy quoted-substring
			// queries that differ from the whole extracted value; keep
			// them on a side list every const-string lookup also visits.
			if strings.ContainsAny(val, `\"`) {
				oracleAddSide(x, &x.oddStrings, n)
			}
		}
	}
	if strings.Contains(line, "iget") || strings.Contains(line, "iput") ||
		strings.Contains(line, "sget") || strings.Contains(line, "sput") {
		if tail != "" {
			oracleAdd(x, famFieldBySig, tail, n)
		}
		// Only string literals carry double quotes in the dump; a quoted
		// line "containing" a field mnemonic is a literal that could also
		// embed any field signature, so every field lookup must consider
		// it (the linear grep would match it too).
		if quoted {
			oracleAddSide(x, &x.oddFields, n)
		}
	}
	// Same literal vector for the constructor search's Contains predicate.
	if quoted && strings.Contains(line, "invoke-direct") {
		oracleAddSide(x, &x.oddCtors, n)
	}
}

// oracleAddSide appends line n to a side list, deduplicating repeats.
func oracleAddSide(x *Index, list *[]int32, n int32) {
	if p := *list; len(p) > 0 && p[len(p)-1] == n {
		return
	}
	*list = append(*list, n)
	x.postings++
}

// oracleAdd appends line n to the postings list of token, deduplicating
// consecutive inserts (the same token can occur twice on one line).
func oracleAdd(x *Index, f family, token string, n int32) {
	m := x.maps[f]
	p := m[token]
	if len(p) > 0 && p[len(p)-1] == n {
		return
	}
	m[token] = append(p, n)
	x.postings++
}

// buildOracle indexes every line of t with addLineOracle.
func buildOracle(t *Text) *Index {
	x := &Index{}
	for f := range x.maps {
		x.maps[f] = make(map[string][]int32)
	}
	for n := range t.LineCount() {
		addLineOracle(x, int32(n), t.Line(n))
	}
	x.lines = t.LineCount()
	return x
}

// linesText wraps raw lines as a one-span dump, enough for build.
func linesText(lines []string) *Text {
	t := &Text{full: strings.Join(lines, "\n") + "\n", spans: []ClassSpan{{Name: "raw", Start: 0, End: len(lines)}}}
	end := -1
	for _, l := range lines {
		end += len(l) + 1
		t.ends = append(t.ends, int32(end))
	}
	return t
}

// checkMatchesOracle requires BuildIndex(t) to hold exactly the maps,
// side lists, line count and postings count of the oracle.
func checkMatchesOracle(t *testing.T, name string, text *Text) {
	t.Helper()
	got, want := BuildIndex(text), buildOracle(text)
	gotMaps, wantMaps := indexMaps(got), indexMaps(want)
	for family := range wantMaps {
		if !reflect.DeepEqual(gotMaps[family], wantMaps[family]) {
			t.Errorf("%s: %s = %v, oracle %v", name, family, gotMaps[family], wantMaps[family])
		}
	}
	gotSides, wantSides := indexSides(got), indexSides(want)
	for side := range wantSides {
		if !reflect.DeepEqual(gotSides[side], wantSides[side]) {
			t.Errorf("%s: %s = %v, oracle %v", name, side, gotSides[side], wantSides[side])
		}
	}
	if got.lines != want.lines || got.postings != want.postings {
		t.Errorf("%s: lines/postings = %d/%d, oracle %d/%d",
			name, got.lines, got.postings, want.lines, want.postings)
	}
}

// oracleLines are hand-written lines aimed at the byte pass's edges:
// mnemonics inside literals and identifiers, nested and unclosed
// descriptors, several ", " separators, odd quoting and non-ASCII text.
func oracleLines() []string {
	var distinct strings.Builder
	for i := range maxPosted + 4 {
		fmt.Fprintf(&distinct, "LA%d;", i)
	}
	return []string{
		`const-string v0, "invoke-virtual {v1}, La/B;.run:()V"`,
		`const-string v0, "invoke-direct {v1}, La/B;.<init>:()V"`,
		`const-string v0, "new-instance v1, La/B;"`,
		`const-string v0, "const-class v1, La/B;"`,
		`const-string v0, "const-string v1, \"x\""`,
		`const-string v0, "iget v1, v2, La/B;.f:I"`,
		`const-string v0, "iput v1, v2, La/B;.f:I"`,
		`const-string v0, "sget v1, La/B;.f:I"`,
		`const-string v0, "sput v1, La/B;.f:I"`,
		`const-string v0, "invoke-"`,
		`const-string v0, "const-"`,
		`invoke-virtual {v0, v1}, Landroid/widget/TextView;.setText:(Ljava/lang/CharSequence;)V`,
		`invoke-static {}, Lcom/a/Widgets;.sgetter:()I`,
		`new-instance v0, Landroid/widget/Button;`,
		`const-class v0, Lcom/sputnik/Orbit;`,
		`invoke-direct {v0}, Lcom/Lfoo;.<init>:(Lcom/Lbar;)V`,
		`const-class v0, Lcom/Lfoo;`,
		`const-string v0, "Lunterminated"`,
		`invoke-virtual {v0}, La/B;.get:()L`,
		`move-result-object vL`,
		`iget-object v0, v1, Lcom/a/B;.f:Ljava/lang/String;`,
		`new-array v0, v1, [Ljava/lang/String;`,
		`const-string v0, "a, b, c"`,
		`const-string v0, "trailing, "`,
		`invoke-static {v0, v1, v2}, `,
		`const-string v0, "lone`,
		`"`,
		`const-string v0, "say \"hi\" \\ there"`,
		`const-string v0, "\\"`,
		`const-string v0, ""`,
		`invoke-static {v0}, Lcom/a/B;.m:(Lcom/a/B;Lcom/a/B;)Lcom/a/B;`,
		`invoke-static {v0}, Lcom/a/B;.m:(Lcom/a/B;Lcom/a/B;)Lcom/a/B;`,
		`const-string v0, "` + distinct.String() + `LA0;LA19;"`,
		`const-string v0, "` + strings.Repeat("L", 3*maxPosted) + `;"`,
		`const-string v0, "` + strings.Repeat("La;", 2*maxPosted) + `"`,
		``,
		`const-string v0, "ünïcødé ✓ Lé; invoke-ü"`,
		`invoke-virtual {v0}, Lcom/ü/Ä;.ö:()V`,
		"\xff\xfeL;\x00;",
		`  Class descriptor  : 'Lcom/a/B;'`,
		`      insns size    : 3 16-bit code units`,
	}
}

func TestTokenizerMatchesOracle(t *testing.T) {
	for _, app := range loadBenchCorpus(t) {
		checkMatchesOracle(t, app.name, app.text)
	}
	app, err := testapps.Fixture()
	if err != nil {
		t.Fatal(err)
	}
	merged, err := app.MergedDex()
	if err != nil {
		t.Fatal(err)
	}
	checkMatchesOracle(t, "fixture", Disassemble(merged))
	lines := oracleLines()
	checkMatchesOracle(t, "hand-written", linesText(lines))
	for _, line := range lines {
		checkMatchesOracle(t, fmt.Sprintf("%q", line), linesText([]string{line}))
	}
}

// withoutTable returns t's dump with no skip table, as a decoded
// bundle's dump has none, so build scans every line of it.
func withoutTable(t *Text) *Text {
	return &Text{full: t.full, ends: t.ends, methods: t.methods, runs: t.runs, spans: t.spans}
}

// TestPlainLinesPostNothing renders every opcode from 0 to two past the
// last one, with extreme operands, in classes and methods whose access
// flags set every bit. Each line render marks as holding no token must
// post nothing under addLine; an instruction line must be marked exactly
// when its opcode prints no string, type, method or field operand; and
// the index must equal the one built with the table dropped.
func TestPlainLinesPostNothing(t *testing.T) {
	last := dex.OpNop
	for !strings.HasPrefix((last + 1).Mnemonic(), "op(") {
		last++
	}
	callee := dex.NewMethodRef("com.op.Callee", "call", dex.Void, dex.StringT, dex.Array(dex.Int))
	field := dex.NewFieldRef("com.op.Callee", "f", dex.StringT)
	args := make([]int, 300)
	for i := range args {
		args[i] = 0xFFFF + i
	}
	var code []dex.Instruction
	for op := dex.Op(0); op <= last+2; op++ {
		for _, v := range []int{0, -1, 0xFFFF + 1, math.MaxInt32, math.MinInt32} {
			code = append(code, dex.Instruction{
				Op: op, A: v, B: -v, C: v ^ 0x7FFF, Lit: math.MinInt64 + int64(v),
				Str: `La/B; "invoke-direct" iget sput const-class`, Type: "[Lcom/op/T;",
				Method: &callee, Field: &field, Args: args, Target: -v,
			})
		}
	}
	all := ^dex.AccessFlags(0)
	f := dex.NewFile()
	for _, c := range []*dex.Class{
		{Name: "com.op.Ops", Super: "com.op.Base", Interfaces: []string{"com.op.I"}, Flags: all,
			Methods: []*dex.Method{
				{Ref: dex.NewMethodRef("com.op.Ops", "run", dex.Void), Flags: all &^ dex.AccAbstract, Registers: 0xFFFF, Code: code},
				{Ref: dex.NewMethodRef("com.op.Ops", "todo", dex.Long, dex.Long), Flags: all},
				// A name that holds a class use and a descriptor with an
				// object parameter: both lines post and stay unmarked.
				{Ref: dex.NewMethodRef("com.op.Ops", "as;Lcom/op/N;", dex.Void, dex.T("com.op.T")), Flags: all},
			}},
		{Name: "com.op.Bare"},
	} {
		if err := f.AddClass(c); err != nil {
			t.Fatal(err)
		}
	}
	text := Disassemble(f)

	plain, pc, headers := 0, 0, 0
	for n := range text.LineCount() {
		line := text.Line(n)
		if strings.HasPrefix(line, "        |") {
			if want := !code[pc].Op.PrintsSymbol(); text.isPlain(n) != want {
				t.Errorf("line %d %q: marked plain %v, want %v", n, line, !want, want)
			}
			pc++
		}
		// Method name and type lines are plain unless what they print
		// posts: here only the third method's two lines do.
		if strings.HasPrefix(line, "      name ") || strings.HasPrefix(line, "      type ") {
			posts := BuildIndex(linesText([]string{line})).Postings() > 0
			if want := headers < 4; text.isPlain(n) != want || posts == want {
				t.Errorf("line %d %q: marked plain %v, posts %v; want plain %v", n, line, text.isPlain(n), posts, want)
			}
			headers++
		}
		if !text.isPlain(n) {
			continue
		}
		plain++
		if x := BuildIndex(linesText([]string{line})); x.Postings() != 0 {
			t.Errorf("line %d %q is marked plain but posts %d tokens", n, line, x.Postings())
		}
	}
	if pc != len(code) || plain < len(code)/2 || headers != 6 {
		t.Fatalf("%d instruction lines of %d, %d method header lines, %d marked plain", pc, len(code), headers, plain)
	}
	if got, want := BuildIndex(text), BuildIndex(withoutTable(text)); !reflect.DeepEqual(got, want) {
		t.Fatal("the index built with the skip table differs from a full scan")
	}
}

// FuzzTokenizeLine requires the byte pass to match the oracle on
// arbitrary text, split at newlines into dump lines.
func FuzzTokenizeLine(f *testing.F) {
	for _, line := range oracleLines() {
		f.Add(line)
	}
	f.Add(strings.Join(oracleLines(), "\n"))
	f.Fuzz(func(t *testing.T, s string) {
		checkMatchesOracle(t, "fuzz", linesText(strings.Split(s, "\n")))
	})
}

// BenchmarkBuildIndex indexes the wall-clock benchmark's 24-app corpus;
// one op is the whole corpus.
func BenchmarkBuildIndex(b *testing.B) {
	apps := loadBenchCorpus(b)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		for _, app := range apps {
			BuildIndex(app.text)
		}
	}
}

// BenchmarkRender times the disassembly layer over the 24-app bench
// corpus: each app's dex files are decoded and merged beforehand, and one
// op renders every app. Render reuses pooled buffers, so B/op depends on
// how many of them survive the collections between ops.
func BenchmarkRender(b *testing.B) {
	apps := loadBenchCorpus(b)
	files := make([]*dex.File, len(apps))
	for i, app := range apps {
		files[i] = dex.NewFile()
		for _, data := range app.dexes {
			f, err := dex.Decode(data)
			if err == nil {
				err = files[i].Merge(f)
			}
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		for _, f := range files {
			if _, err := Render(f); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkLoadDex times the dex decode layer over the 24-app bench
// corpus, one op being every dex file of the corpus: "eager" is the cold
// path's dex.Open and Load, which decodes every body, and "tables" the
// warm path's dex.Open and LoadTables, which checks every body but
// decodes none.
func BenchmarkLoadDex(b *testing.B) {
	apps := loadBenchCorpus(b)
	for _, mode := range []struct {
		name string
		load func(*dex.File) error
	}{{"eager", (*dex.File).Load}, {"tables", (*dex.File).LoadTables}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				for _, app := range apps {
					for _, data := range app.dexes {
						f, err := dex.Open(data)
						if err == nil {
							err = mode.load(f)
						}
						if err != nil {
							b.Fatal(err)
						}
					}
				}
			}
		})
	}
}

// BenchmarkDecodeBundle times the warm path's bundle load over the
// 24-app bench corpus: per app, ReadBundle frames the bundle and checks
// its three section CRCs, Dump rebuilds the dump text and sums it back
// to the header, and Index validates and decodes the index against it.
// One op is the whole corpus.
func BenchmarkDecodeBundle(b *testing.B) {
	apps := loadBenchCorpus(b)
	bundles := make([][]byte, len(apps))
	for i, app := range apps {
		data, err := EncodeBundle(app.text, BuildIndex(app.text), app.fingerprint, nil)
		if err != nil {
			b.Fatal(err)
		}
		bundles[i] = data
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		for i, app := range apps {
			r, err := ReadBundle(bundles[i])
			if err != nil {
				b.Fatal(err)
			}
			text, err := r.Dump(app.fingerprint)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := r.Index(text); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkEncodeBundle times the bundle encode over the 24-app bench
// corpus: per app, the dump, its index and its manifest (all built
// beforehand) serialized into one bundle. One op is the whole corpus;
// B/op against the corpus's bundle bytes shows what the encode
// allocates beyond its output.
func BenchmarkEncodeBundle(b *testing.B) {
	apps := loadBenchCorpus(b)
	indexes := make([]*Index, len(apps))
	manifests := make([]*Manifest, len(apps))
	for i, app := range apps {
		indexes[i], manifests[i] = BuildIndex(app.text), BuildManifest(app.text)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		for i, app := range apps {
			if _, err := EncodeBundle(app.text, indexes[i], app.fingerprint, manifests[i]); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkBuildManifest times the span fingerprints of the update
// path over the 24-app bench corpus. One op is the whole corpus.
func BenchmarkBuildManifest(b *testing.B) {
	apps := loadBenchCorpus(b)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		for _, app := range apps {
			BuildManifest(app.text)
		}
	}
}
