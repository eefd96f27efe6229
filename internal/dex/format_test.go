package dex

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

// formatOracle is the fmt-based instruction renderer the append formatter
// replaced, kept verbatim as the reference AppendFormat must match byte for
// byte.
func formatOracle(in *Instruction) string {
	reg := func(r int) string { return "v" + strconv.Itoa(r) }
	switch in.Op {
	case OpNop:
		return "nop"
	case OpConst:
		return fmt.Sprintf("const/16 %s, #int %d", reg(in.A), in.Lit)
	case OpConstString:
		return fmt.Sprintf("const-string %s, %q", reg(in.A), in.Str)
	case OpConstClass:
		return fmt.Sprintf("const-class %s, %s", reg(in.A), in.Type)
	case OpConstNull:
		return fmt.Sprintf("const/4 %s, #null", reg(in.A))
	case OpMove:
		return fmt.Sprintf("move %s, %s", reg(in.A), reg(in.B))
	case OpMoveResult:
		return fmt.Sprintf("move-result %s", reg(in.A))
	case OpNewInstance:
		return fmt.Sprintf("new-instance %s, %s", reg(in.A), in.Type)
	case OpNewArray:
		return fmt.Sprintf("new-array %s, %s, %s", reg(in.A), reg(in.B), in.Type)
	case OpInvokeVirtual, OpInvokeDirect, OpInvokeStatic, OpInvokeInterface, OpInvokeSuper:
		args := make([]string, len(in.Args))
		for i, a := range in.Args {
			args[i] = reg(a)
		}
		return fmt.Sprintf("%s {%s}, %s", in.Op.Mnemonic(), strings.Join(args, ", "), in.Method.DexSignature())
	case OpIGet:
		return fmt.Sprintf("iget%s %s, %s, %s", typeSuffix(in.Field.Type), reg(in.A), reg(in.B), in.Field.DexSignature())
	case OpIPut:
		return fmt.Sprintf("iput%s %s, %s, %s", typeSuffix(in.Field.Type), reg(in.A), reg(in.B), in.Field.DexSignature())
	case OpSGet:
		return fmt.Sprintf("sget%s %s, %s", typeSuffix(in.Field.Type), reg(in.A), in.Field.DexSignature())
	case OpSPut:
		return fmt.Sprintf("sput%s %s, %s", typeSuffix(in.Field.Type), reg(in.A), in.Field.DexSignature())
	case OpAGet:
		return fmt.Sprintf("aget %s, %s, %s", reg(in.A), reg(in.B), reg(in.C))
	case OpAPut:
		return fmt.Sprintf("aput %s, %s, %s", reg(in.A), reg(in.B), reg(in.C))
	case OpAdd, OpSub, OpMul, OpDiv, OpRem, OpAnd, OpOr, OpXor:
		return fmt.Sprintf("%s %s, %s, %s", in.Op.Mnemonic(), reg(in.A), reg(in.B), reg(in.C))
	case OpAddLit:
		return fmt.Sprintf("add-int/lit8 %s, %s, #int %d", reg(in.A), reg(in.B), in.Lit)
	case OpIfEq, OpIfNe, OpIfLt, OpIfGe, OpIfGt, OpIfLe:
		return fmt.Sprintf("%s %s, %s, %04x", in.Op.Mnemonic(), reg(in.A), reg(in.B), in.Target)
	case OpIfEqz, OpIfNez:
		return fmt.Sprintf("%s %s, %04x", in.Op.Mnemonic(), reg(in.A), in.Target)
	case OpGoto:
		return fmt.Sprintf("goto %04x", in.Target)
	case OpReturn:
		return fmt.Sprintf("return %s", reg(in.A))
	case OpReturnVoid:
		return "return-void"
	case OpCheckCast:
		return fmt.Sprintf("check-cast %s, %s", reg(in.A), in.Type)
	case OpInstanceOf:
		return fmt.Sprintf("instance-of %s, %s, %s", reg(in.A), reg(in.B), in.Type)
	case OpThrow:
		return fmt.Sprintf("throw %s", reg(in.A))
	}
	return in.Op.Mnemonic()
}

// allOps lists every defined opcode.
func allOps() []Op {
	var ops []Op
	for op := OpNop; op <= OpThrow; op++ {
		ops = append(ops, op)
	}
	return ops
}

// checkFormat compares Format and AppendFormat (onto a non-empty prefix)
// with the oracle.
func checkFormat(t *testing.T, in *Instruction) {
	t.Helper()
	want := formatOracle(in)
	if got := in.Format(); got != want {
		t.Errorf("Format(%+v) = %q, oracle %q", *in, got, want)
	}
	if got := string(in.AppendFormat([]byte("|"))); got != "|"+want {
		t.Errorf("AppendFormat(%+v) = %q, oracle %q", *in, got, "|"+want)
	}
}

func TestAppendFormatMatchesOracle(t *testing.T) {
	method := NewMethodRef("com.a.b.C$1", "run", Void, Int, StringT, Array(Long))
	fields := []FieldRef{
		NewFieldRef("com.a.B", "obj", StringT),
		NewFieldRef("com.a.B", "arr", Array(Int)),
		NewFieldRef("com.a.B", "wide", Long),
		NewFieldRef("com.a.B", "dbl", Double),
		NewFieldRef("com.a.B", "flag", Bool),
		NewFieldRef("com.a.B", "n", Int),
	}
	operands := []Instruction{
		{A: 0, B: 1, C: 2, Lit: 7, Str: "plain", Type: "Lcom/a/B;", Target: 3},
		{A: -1, B: -20, C: -300, Lit: -1, Str: `q"uote\back`, Type: "[I", Target: -1},
		{A: 65535, B: 1 << 20, C: math.MaxInt32, Lit: math.MinInt64, Str: "\xff\xfe invalid", Target: 0x10000},
		{A: math.MinInt, B: math.MaxInt, Lit: math.MaxInt64, Str: "ünïcødé ✓ \t\n\x00", Target: math.MinInt},
		{Str: "", Target: 0xabc, Args: []int{}},
		{Target: math.MaxInt, Args: []int{-1, 0, 12345}},
	}
	for _, op := range append(allOps(), Op(0), Op(-3), Op(99)) {
		for _, base := range operands {
			in := base
			in.Op = op
			in.Method = &method
			if in.Args == nil {
				in.Args = []int{in.A, in.B}
			}
			for i := range fields {
				in.Field = &fields[i]
				checkFormat(t, &in)
			}
		}
	}
}

func TestUnknownOpMnemonic(t *testing.T) {
	for op, want := range map[Op]string{Op(99): "op(99)", Op(0): "op(0)", Op(-3): "op(-3)", OpThrow + 1: fmt.Sprintf("op(%d)", int(OpThrow)+1)} {
		if got := op.Mnemonic(); got != want {
			t.Errorf("Mnemonic(%d) = %q, want %q", int(op), got, want)
		}
		in := Instruction{Op: op, A: 1}
		if got := in.Format(); got != want {
			t.Errorf("Format of op %d = %q, want %q", int(op), got, want)
		}
	}
}

// randomString mixes ASCII, quotes, backslashes, control bytes, multi-byte
// runes and invalid UTF-8.
func randomString(rng *rand.Rand) string {
	pieces := []string{"a", "Z", "0", `"`, `\`, "\n", "\x00", "\x7f", "é", "✓", "𝄞", "\xff", "\xc3", " ", "'"}
	var b strings.Builder
	for n := rng.Intn(8); n > 0; n-- {
		b.WriteString(pieces[rng.Intn(len(pieces))])
	}
	return b.String()
}

func randomInt(rng *rand.Rand) int {
	switch rng.Intn(4) {
	case 0:
		return rng.Intn(16)
	case 1:
		return -rng.Intn(1 << 20)
	case 2:
		return int(rng.Uint64())
	}
	return rng.Intn(1 << 20)
}

// TestAppendFormatQuick sweeps random instructions of every opcode (and a
// few unknown ones) against the oracle.
func TestAppendFormatQuick(t *testing.T) {
	types := []TypeDesc{Int, Long, Double, Bool, StringT, Array(StringT), "Lcom/x/Y$Z;", ""}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		class := strings.Repeat("a.", rng.Intn(3)) + "K" + randomString(rng)
		m := NewMethodRef(class, randomString(rng), types[rng.Intn(len(types))])
		for n := rng.Intn(4); n > 0; n-- {
			m.Params = append(m.Params, types[rng.Intn(len(types))])
		}
		f := NewFieldRef(class, randomString(rng), types[rng.Intn(len(types))])
		in := Instruction{
			Op:     Op(rng.Intn(int(OpThrow)+3) - 1),
			A:      randomInt(rng),
			B:      randomInt(rng),
			C:      randomInt(rng),
			Lit:    int64(rng.Uint64()),
			Str:    randomString(rng),
			Type:   types[rng.Intn(len(types))],
			Method: &m,
			Field:  &f,
			Target: randomInt(rng),
		}
		for n := rng.Intn(5); n > 0; n-- {
			in.Args = append(in.Args, randomInt(rng))
		}
		want := formatOracle(&in)
		return in.Format() == want && string(in.AppendFormat([]byte("x"))) == "x"+want
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestAppendHex4MatchesFmt(t *testing.T) {
	for _, v := range []int64{0, 1, 0xf, 0xabc, 0xffff, 0x10000, 0x7fffffff, -1, -0xfff, -0x1000, math.MaxInt64, math.MinInt64} {
		if got, want := string(AppendHex4(nil, v)), fmt.Sprintf("%04x", v); got != want {
			t.Errorf("AppendHex4(%d) = %q, fmt %q", v, got, want)
		}
	}
}

// TestAccessFlagsMatchesFmt checks String and AppendFlags against the fmt
// rendering they replaced, for no flags, every single bit and a mix.
func TestAccessFlagsMatchesFmt(t *testing.T) {
	oracle := func(f AccessFlags) string {
		var names []string
		for _, fn := range flagNames {
			if f.Has(fn.bit) {
				names = append(names, fn.name)
			}
		}
		return fmt.Sprintf("0x%04x (%s)", uint32(f), strings.Join(names, " "))
	}
	flags := []AccessFlags{0, 0x10001, math.MaxUint32}
	for bit := 0; bit < 32; bit++ {
		flags = append(flags, 1<<bit)
	}
	for _, f := range flags {
		want := oracle(f)
		if got := f.String(); got != want {
			t.Errorf("String(%#x) = %q, oracle %q", uint32(f), got, want)
		}
		if got := string(f.AppendFlags([]byte("x"))); got != "x"+want {
			t.Errorf("AppendFlags(%#x) = %q, oracle %q", uint32(f), got, "x"+want)
		}
	}
}

// TestSignaturesBeyondStackBuffer: the string wrappers render into a
// fixed stack buffer first; a signature longer than it must still come out
// whole.
func TestSignaturesBeyondStackBuffer(t *testing.T) {
	class, name := strings.Repeat("pkg.", 40)+"C", strings.Repeat("n", 100)
	m := NewMethodRef(class, name, StringT, StringT, StringT)
	desc := "(Ljava/lang/String;Ljava/lang/String;)Ljava/lang/String;"
	if got, want := m.DexSignature(), string(T(class))+"."+name+":"+desc; got != want {
		t.Errorf("DexSignature = %q, want %q", got, want)
	}
	if got := m.Descriptor(); got != desc {
		t.Errorf("Descriptor = %q, want %q", got, desc)
	}
	f := NewFieldRef(class, name, StringT)
	if got, want := f.DexSignature(), string(T(class))+"."+name+":Ljava/lang/String;"; got != want {
		t.Errorf("field DexSignature = %q, want %q", got, want)
	}
	if got, want := string(T("a.b..c.")), "La/b//c/;"; got != want {
		t.Errorf("T = %q, want %q", got, want)
	}
}
