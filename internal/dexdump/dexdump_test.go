package dexdump

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"backdroid/internal/dex"
	"backdroid/internal/testapps"
)

func sampleFile(t testing.TB) *dex.File {
	t.Helper()
	f := dex.NewFile()

	server := dex.NewClass("com.connectsdk.service.netcast.NetcastHttpServer")
	server.Method("start", dex.Void).ReturnVoid().Done()
	if err := f.AddClass(server.Build()); err != nil {
		t.Fatal(err)
	}

	runner := dex.NewClass("com.connectsdk.service.NetcastTVService$1").
		Implements("java.lang.Runnable")
	run := runner.Method("run", dex.Void)
	srv := run.Reg()
	startRef := dex.NewMethodRef("com.connectsdk.service.netcast.NetcastHttpServer", "start", dex.Void)
	objInit := dex.NewMethodRef("java.lang.Object", "<init>", dex.Void)
	run.New(srv, "com.connectsdk.service.netcast.NetcastHttpServer").
		InvokeDirect(objInit, srv).
		InvokeVirtual(startRef, srv).
		ReturnVoid().Done()
	if err := f.AddClass(runner.Build()); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestDisassembleLayout(t *testing.T) {
	txt := Disassemble(sampleFile(t))
	s := txt.String()

	wantFragments := []string{
		"Class descriptor  : 'Lcom/connectsdk/service/netcast/NetcastHttpServer;'",
		"Superclass        : 'Ljava/lang/Object;'",
		"#0              : 'Ljava/lang/Runnable;'",
		"(in Lcom/connectsdk/service/NetcastTVService$1;)",
		"name          : 'run'",
		"type          : '()V'",
		"invoke-virtual {v1}, Lcom/connectsdk/service/netcast/NetcastHttpServer;.start:()V",
		"new-instance v1, Lcom/connectsdk/service/netcast/NetcastHttpServer;",
	}
	for _, frag := range wantFragments {
		if !strings.Contains(s, frag) {
			t.Errorf("dump missing fragment %q", frag)
		}
	}
}

// textLines returns every dump line, each through Line.
func textLines(t *Text) []string {
	lines := make([]string, t.LineCount())
	for i := range lines {
		lines[i] = t.Line(i)
	}
	return lines
}

// TestRenderFailsPastLimit: a small dex whose one long pool string is
// referenced by many const-string instructions renders far past its own
// size. Render must fail such a dump rather than return offsets that no
// longer fit. The limit is lowered so the test needs no 2 GiB buffer;
// MaxDumpBytes is the same check at the int32 bound.
func TestRenderFailsPastLimit(t *testing.T) {
	long := strings.Repeat("x", 1<<16)
	f := dex.NewFile()
	cb := dex.NewClass("com.example.Hostile")
	mb := cb.StaticMethod("spray", dex.Void)
	for range 64 {
		mb.ConstString(0, long)
	}
	if err := f.AddClass(mb.ReturnVoid().Done().Build()); err != nil {
		t.Fatal(err)
	}

	want := Disassemble(f)
	size := len(want.String())
	if size < 64*len(long) {
		t.Fatalf("dump is %d bytes, want at least %d", size, 64*len(long))
	}
	if _, err := render(f, size-1); !errors.Is(err, ErrDumpTooLarge) {
		t.Errorf("render one byte under the dump's size: err %v, want ErrDumpTooLarge", err)
	}
	if _, err := render(f, 1<<20); !errors.Is(err, ErrDumpTooLarge) {
		t.Errorf("render under a quarter of the dump's size: err %v, want ErrDumpTooLarge", err)
	}
	got, err := render(f, size)
	if err != nil {
		t.Fatalf("render at exactly the dump's size: %v", err)
	}
	if got.String() != want.String() || !slices.Equal(got.ends, want.ends) {
		t.Error("render at the limit differs from Disassemble")
	}
}

func TestMethodAtMapsInstructionLines(t *testing.T) {
	txt := Disassemble(sampleFile(t))
	// Find the invoke-virtual start line and confirm its containing method
	// is NetcastTVService$1.run() — the paper's step 2 of Fig. 3.
	found := false
	for i, line := range textLines(txt) {
		if strings.Contains(line, ";.start:()V") && strings.Contains(line, "invoke-virtual") {
			m, ok := txt.MethodAt(i)
			if !ok {
				t.Fatal("instruction line has no containing method")
			}
			want := "<com.connectsdk.service.NetcastTVService$1: void run()>"
			if m.SootSignature() != want {
				t.Errorf("containing method = %s, want %s", m.SootSignature(), want)
			}
			found = true
		}
	}
	if !found {
		t.Fatal("invoke-virtual start line not found in dump")
	}
}

func TestMethodAtHeaderLines(t *testing.T) {
	txt := Disassemble(sampleFile(t))
	if _, ok := txt.MethodAt(0); ok {
		t.Error("class header line must not map to a method")
	}
	if _, ok := txt.MethodAt(-1); ok {
		t.Error("negative line must not map")
	}
	if _, ok := txt.MethodAt(txt.LineCount() + 5); ok {
		t.Error("out-of-range line must not map")
	}
}

func TestMethodsListed(t *testing.T) {
	txt := Disassemble(sampleFile(t))
	if len(txt.Methods()) != 2 {
		t.Fatalf("methods = %d, want 2", len(txt.Methods()))
	}
	sigs := map[string]bool{}
	for _, m := range txt.Methods() {
		sigs[m.DexSignature()] = true
	}
	if !sigs["Lcom/connectsdk/service/netcast/NetcastHttpServer;.start:()V"] {
		t.Error("start method missing from dump method list")
	}
}

func TestAbstractMethodsHaveNoCode(t *testing.T) {
	f := dex.NewFile()
	iface := dex.NewInterface("com.example.Task").AbstractMethod("exec", dex.Void)
	if err := f.AddClass(iface.Build()); err != nil {
		t.Fatal(err)
	}
	txt := Disassemble(f)
	if strings.Contains(txt.String(), "insns size") {
		t.Error("abstract methods must not emit code sections")
	}
	if !strings.Contains(txt.String(), "name          : 'exec'") {
		t.Error("abstract method header missing")
	}
}

// TestDisassembleConcurrent renders different files from several
// goroutines at once; the pooled render buffers must not leak between them.
func TestDisassembleConcurrent(t *testing.T) {
	files := make([]*dex.File, 8)
	want := make([]string, len(files))
	for i := range files {
		files[i] = randomDex(int64(i))
		want[i] = Disassemble(files[i]).String()
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 50; k++ {
				i := (g + k) % len(files)
				text := Disassemble(files[i])
				if text.String() != want[i] || strings.Join(textLines(text), "\n")+"\n" != want[i] {
					t.Errorf("goroutine %d: file %d rendered differently", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// randomDex builds a well-formed dex file from a seed, mixing every
// operand shape the renderer formats: invokes, field accesses, branches,
// quoted literals, interfaces and abstract methods.
func randomDex(seed int64) *dex.File {
	rng := rand.New(rand.NewSource(seed))
	f := dex.NewFile()
	for ci := 0; ci < 1+rng.Intn(3); ci++ {
		name := "com.rnd.C" + string(rune('A'+ci))
		cb := dex.NewClass(name).Implements("java.lang.Runnable").
			Field("f", dex.Int).StaticField("S", dex.StringT)
		if rng.Intn(2) == 0 {
			cb.AbstractMethod("todo", dex.Void, dex.Long)
		}
		field := dex.NewFieldRef(name, "f", dex.Int)
		static := dex.NewFieldRef(name, "S", dex.StringT)
		for mi := 0; mi < 1+rng.Intn(3); mi++ {
			mb := cb.Method("m"+string(rune('0'+mi)), dex.Int, dex.StringT)
			r, s := mb.Reg(), mb.Param(0)
			mb.Label("top")
			for k := rng.Intn(10); k > 0; k-- {
				switch rng.Intn(6) {
				case 0:
					mb.ConstString(s, "s\"q\\ü\xff"[:rng.Intn(8)])
				case 1:
					mb.IGet(r, mb.This(), field).IPut(r, mb.This(), field)
				case 2:
					mb.SGet(s, static).SPut(s, static)
				case 3:
					mb.InvokeVirtual(mb.Ref(), mb.This(), s).MoveResult(r)
				case 4:
					mb.IfZ(dex.OpIfEqz, r, "top")
				case 5:
					mb.Const(r, rng.Int63()-rng.Int63())
				}
			}
			mb.Return(r).Done()
		}
		_ = f.AddClass(cb.Build())
	}
	return f
}

// checkTablesMatch requires a table-loaded file to have the classes and
// instruction counts of the decoded want, every body still pending, and
// each body, once asked for, equal to want's.
func checkTablesMatch(t *testing.T, tables, want *dex.File) {
	t.Helper()
	tc, wc := tables.Classes(), want.Classes()
	if len(tc) != len(wc) || tables.InstructionCount() != want.InstructionCount() {
		t.Fatalf("table load: %d classes, %d instructions; Decode: %d, %d",
			len(tc), tables.InstructionCount(), len(wc), want.InstructionCount())
	}
	for i, c := range tc {
		if len(c.Methods) != len(wc[i].Methods) {
			t.Fatalf("%s: table load has %d methods, Decode %d", c.Name, len(c.Methods), len(wc[i].Methods))
		}
		for j, m := range c.Methods {
			w := wc[i].Methods[j]
			if m.BodyDecoded() || m.Code != nil {
				t.Fatalf("%s: body decoded by the table load", m.Ref)
			}
			if m.InstructionCount() != len(w.Code) {
				t.Fatalf("%s: %d instructions counted, Decode has %d", m.Ref, m.InstructionCount(), len(w.Code))
			}
			if got := m.Instructions(); !m.BodyDecoded() || !reflect.DeepEqual(got, w.Code) {
				t.Fatalf("%s: Instructions() = %+v, Decode's body %+v", m.Ref, got, w.Code)
			}
		}
	}
}

// FuzzDecodeDex feeds arbitrary bytes to dex.Decode, seeded with encoded
// random files, the sample file, the fixture app's merged dex and
// truncations of it. Decoding must never panic or exhaust memory. The
// old reader-based decoder (oracleDecode) must accept and reject the same
// inputs with the same error, and what both accept must encode to the
// same bytes. The first-touch path, dex.Open then Load, must agree with
// Decode: the same error or none, and the same disassembly. So must the
// table load, dex.Open then LoadTables, which must leave every body
// pending, count each one's instructions right, and decode each through
// Instructions to Decode's body. A decoded file must disassemble and index without
// panicking, into lines that tile the text, into the same index with and
// without the renderer's skip table, and re-encoding it must decode to a
// file that disassembles to the same bytes.
func FuzzDecodeDex(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(dex.Encode(randomDex(seed)))
	}
	f.Add(dex.Encode(sampleFile(f)))
	app, err := testapps.Fixture()
	if err != nil {
		f.Fatal(err)
	}
	merged, err := app.MergedDex()
	if err != nil {
		f.Fatal(err)
	}
	fixture := dex.Encode(merged)
	f.Add(fixture)
	// Cuts inside the pool, inside a varint and at the magic, and a
	// varint of ten continuation bytes, which the reader-based decoder
	// reports as an overflow rather than a short read.
	for _, n := range []int{8, 9, 40, len(fixture) / 2, len(fixture) - 1} {
		f.Add(fixture[:n])
	}
	f.Add(append([]byte("GDEX0001"), bytes.Repeat([]byte{0xff}, 10)...))
	// A method body with an invoke that carries no method ref.
	_, badCode, err := testapps.BadCodeContainer()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(badCode)
	// Register and input counts one past the u16 the format allows.
	for _, over := range []func(*dex.Method){
		func(m *dex.Method) { m.Registers = 1 << 16 },
		func(m *dex.Method) { m.Ins = 1 << 16 },
	} {
		file := sampleFile(f)
		over(file.Classes()[1].Methods[0])
		f.Add(dex.Encode(file))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		file, err := dex.Decode(data)
		ofile, oerr := oracleDecode(data)
		if (err == nil) != (oerr == nil) || (err != nil && err.Error() != oerr.Error()) {
			t.Fatalf("Decode error %v, oracle decoder error %v", err, oerr)
		}
		if err == nil && !bytes.Equal(dex.Encode(file), dex.Encode(ofile)) {
			t.Fatal("Decode and the oracle decoder decoded different files")
		}
		lazy, lerr := dex.Open(data)
		if lerr == nil {
			lerr = lazy.Load()
		}
		if (err == nil) != (lerr == nil) || (err != nil && err.Error() != lerr.Error()) {
			t.Fatalf("Decode error %v, Open+Load error %v", err, lerr)
		}
		tables, terr := dex.Open(data)
		if terr == nil {
			terr = tables.LoadTables()
		}
		if (err == nil) != (terr == nil) || (err != nil && err.Error() != terr.Error()) {
			t.Fatalf("Decode error %v, Open+LoadTables error %v", err, terr)
		}
		if err != nil {
			return
		}
		checkTablesMatch(t, tables, file)
		text := Disassemble(file)
		if Disassemble(lazy).String() != text.String() {
			t.Fatal("Open+Load disassembles differently from Decode")
		}
		if !reflect.DeepEqual(BuildIndex(text), BuildIndex(withoutTable(text))) {
			t.Fatal("the index built with the skip table differs from a full scan")
		}
		n := 0
		for _, line := range textLines(text) {
			n += len(line) + 1
		}
		if n != len(text.String()) {
			t.Fatalf("lines cover %d bytes of a %d-byte dump", n, len(text.String()))
		}
		again, err := dex.Decode(dex.Encode(file))
		if err != nil {
			t.Fatalf("re-encoded file does not decode: %v", err)
		}
		if Disassemble(again).String() != text.String() {
			t.Fatal("re-encoded file disassembles differently")
		}
	})
}
