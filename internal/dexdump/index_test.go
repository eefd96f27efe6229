package dexdump

import (
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
	for _, sh := range idx.shards {
		for tok, p := range sh.classUse {
			check("classUse["+tok+"]", p)
		}
		for tok, p := range sh.invokeBySig {
			check("invoke["+tok+"]", p)
		}
		for tok, p := range sh.fieldBySig {
			check("field["+tok+"]", p)
		}
	}
}
