package dex

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

// buildSampleFile constructs a file exercising every instruction shape.
func buildSampleFile(t *testing.T) *File {
	t.Helper()
	f := NewFile()

	runnable := NewMethodRef("java.lang.Runnable", "run", Void)
	cb := NewClass("com.sample.Worker").Implements("java.lang.Runnable").
		Field("count", Int).
		StaticField("NAME", StringT)

	ctor := cb.Constructor(Int)
	objInit := NewMethodRef("java.lang.Object", "<init>", Void)
	ctor.InvokeDirect(objInit, ctor.This()).
		IPut(ctor.Param(0), ctor.This(), NewFieldRef("com.sample.Worker", "count", Int)).
		ReturnVoid().Done()

	run := cb.Method("run", Void)
	r1, r2, r3 := run.Reg(), run.Reg(), run.Reg()
	run.ConstString(r1, "hello").
		Const(r2, 7).
		ConstNull(r3).
		ConstClass(r3, "com.sample.Worker").
		Move(r2, r2).
		New(r3, "java.lang.Object").
		InvokeDirect(objInit, r3).
		NewArray(r3, r2, Int).
		AGet(r2, r3, r2).
		APut(r2, r3, r2).
		Binop(OpAdd, r2, r2, r2).
		AddLit(r2, r2, 3).
		IGet(r2, run.This(), NewFieldRef("com.sample.Worker", "count", Int)).
		SGet(r1, NewFieldRef("com.sample.Worker", "NAME", StringT)).
		SPut(r1, NewFieldRef("com.sample.Worker", "NAME", StringT)).
		CheckCast(r3, "java.lang.Object").
		Label("again").
		If(OpIfEq, r2, r2, "done").
		IfZ(OpIfNez, r2, "again").
		InvokeInterface(runnable, run.This()).
		MoveResult(r2).
		Goto("done").
		Label("done").
		ReturnVoid().Done()

	clinit := cb.StaticInitializer()
	rr := clinit.Reg()
	clinit.ConstString(rr, "worker").
		SPut(rr, NewFieldRef("com.sample.Worker", "NAME", StringT)).
		ReturnVoid().Done()

	if err := f.AddClass(cb.Build()); err != nil {
		t.Fatal(err)
	}

	iface := NewInterface("com.sample.Task").AbstractMethod("exec", Int, StringT)
	if err := f.AddClass(iface.Build()); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := buildSampleFile(t)
	data := Encode(f)
	got, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}

	if len(got.Classes()) != len(f.Classes()) {
		t.Fatalf("classes = %d, want %d", len(got.Classes()), len(f.Classes()))
	}
	for i, want := range f.Classes() {
		gc := got.Classes()[i]
		if gc.Name != want.Name || gc.Super != want.Super || gc.Flags != want.Flags {
			t.Errorf("class %d header mismatch: %+v vs %+v", i, gc, want)
		}
		if len(gc.Interfaces) != len(want.Interfaces) {
			t.Errorf("class %d interfaces = %v, want %v", i, gc.Interfaces, want.Interfaces)
		}
		if len(gc.Fields) != len(want.Fields) {
			t.Errorf("class %d fields = %d, want %d", i, len(gc.Fields), len(want.Fields))
		}
		if len(gc.Methods) != len(want.Methods) {
			t.Fatalf("class %d methods = %d, want %d", i, len(gc.Methods), len(want.Methods))
		}
		for j, wm := range want.Methods {
			gm := gc.Methods[j]
			if gm.Ref.SootSignature() != wm.Ref.SootSignature() {
				t.Errorf("method %d ref = %s, want %s", j, gm.Ref, wm.Ref)
			}
			if gm.Registers != wm.Registers || gm.Ins != wm.Ins || gm.Flags != wm.Flags {
				t.Errorf("method %s header mismatch", wm.Ref)
			}
			if len(gm.Code) != len(wm.Code) {
				t.Fatalf("method %s code = %d, want %d", wm.Ref, len(gm.Code), len(wm.Code))
			}
			for k := range wm.Code {
				if gm.Code[k].Format() != wm.Code[k].Format() {
					t.Errorf("method %s instr %d: %q vs %q",
						wm.Ref, k, gm.Code[k].Format(), wm.Code[k].Format())
				}
			}
		}
	}
}

func TestEncodeDeterministic(t *testing.T) {
	f := buildSampleFile(t)
	a := Encode(f)
	b := Encode(f)
	if !bytes.Equal(a, b) {
		t.Error("Encode must be deterministic")
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode(nil); err == nil {
		t.Error("Decode(nil) should fail")
	}
	if _, err := Decode([]byte("BAD!")); err == nil {
		t.Error("Decode(bad magic) should fail")
	}
	data := Encode(buildSampleFile(t))
	if _, err := Decode(data[:len(data)/2]); err == nil {
		t.Error("Decode(truncated) should fail")
	}
}

// TestDecoderVarintsMatchReader pins the slice decoder's varints to
// binary.ReadUvarint and ReadVarint on a reader over the same bytes:
// value, bytes consumed and error — io.EOF, io.ErrUnexpectedEOF or the
// overflow error, by identity for the first two — at every boundary.
func TestDecoderVarintsMatchReader(t *testing.T) {
	ff := func(n int, tail ...byte) []byte { return append(bytes.Repeat([]byte{0xff}, n), tail...) }
	cases := [][]byte{
		{}, {0x00}, {0x7f}, {0x80, 0x01}, {0x80, 0x00}, {0x80}, {0x80, 0x80},
		ff(9), ff(9, 0x01), ff(9, 0x02), ff(9, 0x7f), ff(10), ff(11), ff(10, 0x01), ff(12, 0x00),
		binary.AppendUvarint(nil, 1<<63), binary.AppendUvarint(nil, ^uint64(0)),
	}
	errText := func(err error) string { return fmt.Sprint(err) }
	for _, c := range cases {
		r := bytes.NewReader(c)
		want, werr := binary.ReadUvarint(r)
		d := &decoder{buf: c}
		got, gerr := d.uvarint()
		if errText(gerr) != errText(werr) {
			t.Errorf("uvarint(%x): error %v, ReadUvarint %v", c, gerr, werr)
		}
		if (werr == io.EOF) != (gerr == io.EOF) || (werr == io.ErrUnexpectedEOF) != (gerr == io.ErrUnexpectedEOF) {
			t.Errorf("uvarint(%x): error %#v is not ReadUvarint's %#v", c, gerr, werr)
		}
		if werr == nil && (got != want || len(d.buf) != r.Len()) {
			t.Errorf("uvarint(%x) = %d leaving %d bytes, ReadUvarint %d leaving %d", c, got, len(d.buf), want, r.Len())
		}

		r = bytes.NewReader(c)
		wantS, werr := binary.ReadVarint(r)
		d = &decoder{buf: c}
		gotS, gerr := d.varint()
		if errText(gerr) != errText(werr) || werr == nil && (gotS != wantS || len(d.buf) != r.Len()) {
			t.Errorf("varint(%x) = %d, %v; ReadVarint %d, %v", c, gotS, gerr, wantS, werr)
		}
	}
}

// TestDecodeRejectsHostileCounts feeds counts no input of that size can
// hold. Each must fail cleanly instead of sizing a terabyte allocation
// (which ends the process with a fatal out-of-memory error, not a panic).
func TestDecodeRejectsHostileCounts(t *testing.T) {
	huge := binary.AppendUvarint(nil, 1<<40)

	// A valid file whose last byte is its only method's instruction count.
	f := NewFile()
	cb := NewClass("com.hostile.C")
	cb.StaticMethod("m", Void).Done()
	if err := f.AddClass(cb.Build()); err != nil {
		t.Fatal(err)
	}
	valid := Encode(f)
	if _, err := Decode(valid); err != nil {
		t.Fatalf("the valid base file does not decode: %v", err)
	}
	if valid[len(valid)-1] != 0 {
		t.Fatalf("base file does not end in a zero instruction count")
	}

	tests := []struct {
		name string
		data []byte
	}{
		{"pool size", append([]byte(dexMagic), huge...)},
		{"pool entry length", append(append([]byte(dexMagic), 1), huge...)},
		{"instruction count", append(append([]byte(nil), valid[:len(valid)-1]...), huge...)},
		{"instruction count with padding", append(append(append([]byte(nil), valid[:len(valid)-1]...), huge...), make([]byte, 64)...)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Decode(tt.data); err == nil {
				t.Fatalf("Decode(%x) succeeded", tt.data)
			}
		})
	}
}

// TestDecodeRejectsMissingRefs: an invoke without a method ref or a field
// access without a field ref decodes as an error naming the opcode and its
// position, so the disassembler never dereferences a nil ref.
func TestDecodeRejectsMissingRefs(t *testing.T) {
	for _, op := range []Op{OpInvokeVirtual, OpInvokeDirect, OpInvokeStatic, OpInvokeInterface, OpInvokeSuper, OpIGet, OpIPut, OpSGet, OpSPut} {
		t.Run(op.Mnemonic(), func(t *testing.T) {
			f := NewFile()
			c := &Class{Name: "com.bad.C", Super: "java.lang.Object", Methods: []*Method{{
				Ref:   NewMethodRef("com.bad.C", "m", Void),
				Flags: AccStatic,
				Code:  []Instruction{{Op: OpNop}, {Op: op, Args: []int{0}}, {Op: OpReturnVoid}},
			}}}
			if err := f.AddClass(c); err != nil {
				t.Fatal(err)
			}
			data := Encode(f)
			_, err := Decode(data)
			if err == nil {
				t.Fatal("Decode accepted an instruction without its ref")
			}
			tables, _ := Open(data)
			if terr := tables.LoadTables(); terr == nil || terr.Error() != err.Error() {
				t.Fatalf("LoadTables error %v, want Decode's %v", terr, err)
			}
			for _, want := range []string{op.Mnemonic() + " without", "com.bad.C.m", "instruction 1"} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q does not mention %q", err, want)
				}
			}
		})
	}
}

// TestOpenDecodesOnFirstTouch: Open checks only the magic; each accessor
// decodes the file on its first call, to the classes Decode yields, and
// the raw bytes are dropped once decoded.
func TestOpenDecodesOnFirstTouch(t *testing.T) {
	data := Encode(buildSampleFile(t))
	want, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !want.Loaded() || !NewFile().Loaded() {
		t.Fatal("decoded and new files must report Loaded")
	}
	touches := map[string]func(f *File){
		"Classes":          func(f *File) { f.Classes() },
		"Class":            func(f *File) { f.Class("com.sample.Worker") },
		"Method":           func(f *File) { f.Method(NewMethodRef("com.sample.Worker", "run", Void)) },
		"Merge":            func(f *File) { _ = NewFile().Merge(f) },
		"InstructionCount": func(f *File) { f.InstructionCount() },
		"MethodCount":      func(f *File) { f.MethodCount() },
		"AddClass":         func(f *File) { _ = f.AddClass(&Class{Name: "com.sample.Extra"}) },
		"Load":             func(f *File) { _ = f.Load() },
	}
	for name, touch := range touches {
		t.Run(name, func(t *testing.T) {
			f, err := Open(data)
			if err != nil {
				t.Fatal(err)
			}
			if f.Loaded() {
				t.Fatal("Open decoded the file")
			}
			touch(f)
			if !f.Loaded() || f.raw != nil {
				t.Fatalf("after %s: Loaded = %v, %d raw bytes kept", name, f.Loaded(), len(f.raw))
			}
			if err := f.Load(); err != nil {
				t.Fatal(err)
			}
			if got := f.Classes()[0]; got.Name != want.Classes()[0].Name || f.MethodCount() < want.MethodCount() {
				t.Fatalf("after %s: decoded %s with %d methods, want %s with %d",
					name, got.Name, f.MethodCount(), want.Classes()[0].Name, want.MethodCount())
			}
		})
	}
}

// TestOpenFailedLoadIsEmpty: a file with a valid magic and a hostile body
// opens; Load returns Decode's error, and every accessor then sees an
// empty file instead of panicking.
func TestOpenFailedLoadIsEmpty(t *testing.T) {
	if _, err := Open([]byte("BAD!")); err == nil {
		t.Fatal("Open accepted a bad magic")
	}
	data := append([]byte(dexMagic), binary.AppendUvarint(nil, 1<<40)...)
	_, want := Decode(data)
	if want == nil {
		t.Fatal("Decode accepted the hostile body")
	}
	f, err := Open(data)
	if err != nil {
		t.Fatalf("Open checks only the magic: %v", err)
	}
	if err := f.Load(); err == nil || err.Error() != want.Error() {
		t.Fatalf("Load error %v, want Decode's %v", err, want)
	}
	if err := f.Load(); err == nil || err.Error() != want.Error() {
		t.Fatalf("second Load error %v, want Decode's %v", err, want)
	}
	if !f.Loaded() || len(f.Classes()) != 0 || f.Class("x") != nil || f.InstructionCount() != 0 ||
		f.MethodCount() != 0 || f.Method(NewMethodRef("x", "m", Void)) != nil {
		t.Fatal("a failed load must leave an empty file")
	}
	merged := NewFile()
	if err := merged.Merge(f); err != nil || len(merged.Classes()) != 0 {
		t.Fatalf("merging a failed file: %v, %d classes", err, len(merged.Classes()))
	}
	if err := f.AddClass(&Class{Name: "com.a.A"}); err != nil || f.Class("com.a.A") == nil {
		t.Fatalf("AddClass after a failed load: %v", err)
	}
}

// TestDecodeRejectsWideRegisterCounts: Dalvik stores a method's register
// and input counts as u16, so a count past 0xFFFF is a decode error naming
// the method, for Decode and LoadTables alike, while 0xFFFF decodes.
func TestDecodeRejectsWideRegisterCounts(t *testing.T) {
	for _, tt := range []struct {
		name string
		set  func(m *Method, n int)
	}{
		{"register count", func(m *Method, n int) { m.Registers = n }},
		{"input count", func(m *Method, n int) { m.Ins = n }},
	} {
		for _, n := range []int{1<<16 - 1, 1 << 16, 1 << 40} {
			f := NewFile()
			c := NewClass("com.wide.C").StaticMethod("m", Void).ReturnVoid().Done().Build()
			tt.set(c.Methods[0], n)
			if err := f.AddClass(c); err != nil {
				t.Fatal(err)
			}
			data := Encode(f)
			_, err := Decode(data)
			tables, _ := Open(data)
			terr := tables.LoadTables()
			if n <= 1<<16-1 {
				if err != nil || terr != nil {
					t.Errorf("%s %d: Decode %v, LoadTables %v; want both to accept it", tt.name, n, err, terr)
				}
				continue
			}
			if err == nil || !strings.Contains(err.Error(), "com.wide.C.m: "+tt.name) {
				t.Errorf("%s %d: Decode error %v, want one naming the method and the count", tt.name, n, err)
			}
			if terr == nil || err == nil || terr.Error() != err.Error() {
				t.Errorf("%s %d: LoadTables error %v, want Decode's %v", tt.name, n, terr, err)
			}
		}
	}
}

// TestLoadTablesDefersBodies: LoadTables decodes the classes and method
// headers with every body pending, counts instructions without decoding,
// and decodes a body to Decode's on its first Instructions call. A later
// Load fills every remaining body, and concurrent Instructions and Load
// calls on one file are safe (run under -race).
func TestLoadTablesDefersBodies(t *testing.T) {
	data := Encode(buildSampleFile(t))
	want, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	f, err := Open(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.LoadTables(); err != nil {
		t.Fatal(err)
	}
	if f.InstructionCount() != want.InstructionCount() || f.InstructionCount() == 0 {
		t.Fatalf("InstructionCount = %d, want %d", f.InstructionCount(), want.InstructionCount())
	}
	var methods, wantMethods []*Method
	for i, c := range f.Classes() {
		methods = append(methods, c.Methods...)
		wantMethods = append(wantMethods, want.Classes()[i].Methods...)
	}
	for _, m := range methods {
		if m.BodyDecoded() || m.Code != nil {
			t.Fatalf("%s: body decoded by LoadTables", m.Ref)
		}
	}
	first := methods[0]
	if got := first.Instructions(); !first.BodyDecoded() || !reflect.DeepEqual(got, wantMethods[0].Code) {
		t.Fatalf("%s: Instructions() = %+v, want %+v", first.Ref, got, wantMethods[0].Code)
	}
	if methods[1].BodyDecoded() {
		t.Fatalf("%s: decoded along with %s", methods[1].Ref, first.Ref)
	}

	var wg sync.WaitGroup
	for _, m := range methods {
		for range 2 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				m.Instructions()
			}()
		}
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := f.Load(); err != nil {
			t.Error(err)
		}
	}()
	wg.Wait()
	for i, m := range methods {
		if !m.BodyDecoded() || !reflect.DeepEqual(m.Code, wantMethods[i].Code) {
			t.Fatalf("%s: Code after Load = %+v, want %+v", m.Ref, m.Code, wantMethods[i].Code)
		}
	}
}

// operandHeavyFile has one method whose body spans several operand
// chunks of every kind: 20 invokes with a parameter and two arguments
// each, and 12 field reads.
func operandHeavyFile() *File {
	f := NewFile()
	cb := NewClass("com.chunk.Heavy").Field("n", Int)
	mb := cb.Method("run", Void, StringT)
	field := NewFieldRef("com.chunk.Heavy", "n", Int)
	r := mb.Reg()
	for i := range 20 {
		callee := NewMethodRef("com.chunk.Callee", fmt.Sprintf("m%d", i), Void, StringT)
		mb.InvokeVirtual(callee, mb.This(), mb.Param(0))
		if i < 12 {
			mb.IGet(r, mb.This(), field)
		}
	}
	mb.ReturnVoid().Done()
	_ = f.AddClass(cb.Build())
	return f
}

// TestOperandChunksAreIsolated requires every decoded operand slice to
// end at its own length: appending to one must copy, never write into
// the next instruction's operands. Both the eager decode and a lazily
// decoded body take their operands from shared chunks.
func TestOperandChunksAreIsolated(t *testing.T) {
	data := Encode(operandHeavyFile())
	eager, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	lazy, err := Open(data)
	if err == nil {
		err = lazy.LoadTables()
	}
	if err != nil {
		t.Fatal(err)
	}
	for name, f := range map[string]*File{"eager": eager, "lazy": lazy} {
		code := f.Classes()[0].Methods[0].Instructions()
		want := make([]Instruction, len(code))
		for i, in := range code {
			want[i] = in
			if in.Method != nil {
				m := *in.Method
				m.Params = append([]TypeDesc(nil), m.Params...)
				want[i].Method = &m
				want[i].Args = append([]int(nil), in.Args...)
			}
		}
		for _, in := range code {
			if in.Method != nil {
				_ = append(in.Method.Params, "LX;")
				_ = append(in.Args, 99)
			}
		}
		if !reflect.DeepEqual(code, want) {
			t.Fatalf("%s: appending to decoded operands changed a neighbour", name)
		}
	}
}

// TestLazyBodySizesItsChunks requires a lazily decoded body to take its
// operands from a few chunks sized to the body, not one allocation per
// ref, Params or Args slice (61 for this body) and not whole 512-byte
// chunks it leaves mostly empty. The counters are process-wide, so the
// test measures as testing.AllocsPerRun does — on one P — and keeps the
// least of three decodes, each of a freshly loaded file.
func TestLazyBodySizesItsChunks(t *testing.T) {
	data := Encode(operandHeavyFile())
	mallocs, allocated := uint64(math.MaxUint64), uint64(math.MaxUint64)
	var code []Instruction
	for range 3 {
		f, err := Open(data)
		if err == nil {
			err = f.LoadTables()
		}
		if err != nil {
			t.Fatal(err)
		}
		m := f.Classes()[0].Methods[0]
		var before, after runtime.MemStats
		procs := runtime.GOMAXPROCS(1)
		runtime.ReadMemStats(&before)
		code = m.Instructions()
		runtime.ReadMemStats(&after)
		runtime.GOMAXPROCS(procs)
		mallocs = min(mallocs, after.Mallocs-before.Mallocs)
		allocated = min(allocated, after.TotalAlloc-before.TotalAlloc)
	}
	// The operands alone need 20 method refs, 12 field refs, 20 params
	// and 40 args; the rest is the Code slice and the decoders.
	exact := 20*unsafe.Sizeof(MethodRef{}) + 12*unsafe.Sizeof(FieldRef{}) +
		20*unsafe.Sizeof(TypeDesc("")) + 40*unsafe.Sizeof(0) +
		uintptr(len(code))*unsafe.Sizeof(Instruction{})
	if mallocs > 15 {
		t.Errorf("lazy decode made %d allocations", mallocs)
	}
	if allocated > uint64(exact)+512 {
		t.Errorf("lazy decode allocated %d bytes, its body needs %d", allocated, exact)
	}
}

func TestTakeBoundsChunks(t *testing.T) {
	var chunk []int
	left := 70
	a := take(&chunk, 3, &left)
	if len(a) != 3 || cap(a) != 3 || len(chunk) != chunkBytes/8-3 || left != 67 {
		t.Fatalf("first take: len %d cap %d, chunk %d left, %d still needed", len(a), cap(a), len(chunk), left)
	}
	big := take(&chunk, chunkBytes, &left)
	if len(big) != chunkBytes || len(chunk) != chunkBytes/8-3 {
		t.Fatalf("an oversized take used the chunk: len %d, chunk %d left", len(big), len(chunk))
	}
	left = 5
	chunk = nil
	take(&chunk, 2, &left)
	if len(chunk) != 3 {
		t.Fatalf("a sized chunk holds %d spare entries, want 3", len(chunk))
	}
}
