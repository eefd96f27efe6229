package dexdump

import (
	"fmt"
	"strings"
	"testing"

	"backdroid/internal/dex"
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
	for i, line := range text.Lines() {
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
	if got := idx.InvokeByName(".work:()V"); len(got) != 1 {
		t.Errorf("invoke-by-name postings = %v", got)
	}
	if got := idx.CtorByPrefix("Lcom/idx/Helper;.<init>:"); len(got) != 1 {
		t.Errorf("ctor postings = %v (the allocation site in main)", got)
	}
	if got := idx.CtorByPrefix("Ljava/lang/Object;.<init>:"); len(got) != 1 {
		t.Errorf("object ctor postings = %v (Helper's ctor calls super)", got)
	}
	if got := idx.NewInstance("Lcom/idx/Helper;"); len(got) != 1 {
		t.Errorf("new-instance postings = %v", got)
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

func TestIndexPostingsAscendingUnique(t *testing.T) {
	_, idx := indexFixture(t)
	check := func(name string, p []int32) {
		for i := 1; i < len(p); i++ {
			if p[i] <= p[i-1] {
				t.Errorf("%s postings not strictly ascending: %v", name, p)
				return
			}
		}
	}
	for tok, p := range idx.classUse {
		check("classUse["+tok+"]", p)
	}
	for tok, p := range idx.invokeBySig {
		check("invoke["+tok+"]", p)
	}
	for tok, p := range idx.fieldBySig {
		check("field["+tok+"]", p)
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
	out["invoke-name"] = src.InvokeByName(".<init>:()V")
	out["invoke-prefix"] = src.InvokeByNamePrefix(".<init>:")
	out["invoke-prefix-miss"] = src.InvokeByNamePrefix(".nosuch:")
	out["ctor"] = src.CtorByPrefix("Ljava/lang/Object;.<init>:")
	out["new"] = src.NewInstance("Lcom/alpha/One;")
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
