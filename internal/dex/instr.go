package dex

import "strconv"

// Op is a bytecode opcode. The set is a Dalvik-like subset sufficient for
// the control- and data-flow shapes the BackDroid analyses handle.
type Op int

// Opcodes.
const (
	OpNop Op = iota + 1

	OpConst       // A := Lit
	OpConstString // A := Str
	OpConstClass  // A := class literal Type
	OpConstNull   // A := null
	OpMove        // A := B
	OpMoveResult  // A := result of the preceding invoke

	OpNewInstance // A := new Type
	OpNewArray    // A := new Type[B]

	OpInvokeVirtual   // Method(Args...) via virtual dispatch; Args[0] is receiver
	OpInvokeDirect    // constructor / private dispatch; Args[0] is receiver
	OpInvokeStatic    // static dispatch
	OpInvokeInterface // interface dispatch; Args[0] is receiver
	OpInvokeSuper     // super dispatch; Args[0] is receiver

	OpIGet // A := B.Field
	OpIPut // B.Field := A
	OpSGet // A := Field (static)
	OpSPut // Field := A (static)
	OpAGet // A := B[C]
	OpAPut // B[C] := A

	OpAdd // A := B + C
	OpSub
	OpMul
	OpDiv
	OpRem
	OpAnd
	OpOr
	OpXor
	OpAddLit // A := B + Lit

	OpIfEq // if A == B goto Target
	OpIfNe
	OpIfLt
	OpIfGe
	OpIfGt
	OpIfLe
	OpIfEqz // if A == 0 goto Target
	OpIfNez
	OpGoto // goto Target

	OpReturn // return A
	OpReturnVoid
	OpCheckCast  // A := (Type) A
	OpInstanceOf // A := B instanceof Type
	OpThrow      // throw A
)

var opMnemonics = [...]string{
	OpNop:             "nop",
	OpConst:           "const/16",
	OpConstString:     "const-string",
	OpConstClass:      "const-class",
	OpConstNull:       "const/4",
	OpMove:            "move",
	OpMoveResult:      "move-result",
	OpNewInstance:     "new-instance",
	OpNewArray:        "new-array",
	OpInvokeVirtual:   "invoke-virtual",
	OpInvokeDirect:    "invoke-direct",
	OpInvokeStatic:    "invoke-static",
	OpInvokeInterface: "invoke-interface",
	OpInvokeSuper:     "invoke-super",
	OpIGet:            "iget",
	OpIPut:            "iput",
	OpSGet:            "sget",
	OpSPut:            "sput",
	OpAGet:            "aget",
	OpAPut:            "aput",
	OpAdd:             "add-int",
	OpSub:             "sub-int",
	OpMul:             "mul-int",
	OpDiv:             "div-int",
	OpRem:             "rem-int",
	OpAnd:             "and-int",
	OpOr:              "or-int",
	OpXor:             "xor-int",
	OpAddLit:          "add-int/lit8",
	OpIfEq:            "if-eq",
	OpIfNe:            "if-ne",
	OpIfLt:            "if-lt",
	OpIfGe:            "if-ge",
	OpIfGt:            "if-gt",
	OpIfLe:            "if-le",
	OpIfEqz:           "if-eqz",
	OpIfNez:           "if-nez",
	OpGoto:            "goto",
	OpReturn:          "return",
	OpReturnVoid:      "return-void",
	OpCheckCast:       "check-cast",
	OpInstanceOf:      "instance-of",
	OpThrow:           "throw",
}

// Mnemonic returns the dexdump mnemonic of the opcode.
func (o Op) Mnemonic() string {
	if o > 0 && int(o) < len(opMnemonics) {
		return opMnemonics[o]
	}
	return "op(" + strconv.Itoa(int(o)) + ")"
}

// IsInvoke reports whether the opcode is one of the five invoke kinds.
func (o Op) IsInvoke() bool {
	switch o {
	case OpInvokeVirtual, OpInvokeDirect, OpInvokeStatic, OpInvokeInterface, OpInvokeSuper:
		return true
	}
	return false
}

// PrintsSymbol reports whether AppendFormat prints a string, type,
// method or field operand for the opcode. Every other opcode, an unknown
// one included, prints only its mnemonic, registers, literals and branch
// targets.
func (o Op) PrintsSymbol() bool {
	switch o {
	case OpConstString, OpConstClass, OpNewInstance, OpCheckCast, OpNewArray, OpInstanceOf,
		OpInvokeVirtual, OpInvokeDirect, OpInvokeStatic, OpInvokeInterface, OpInvokeSuper,
		OpIGet, OpIPut, OpSGet, OpSPut:
		return true
	}
	return false
}

// IsBranch reports whether the opcode may transfer control to Target.
func (o Op) IsBranch() bool {
	switch o {
	case OpIfEq, OpIfNe, OpIfLt, OpIfGe, OpIfGt, OpIfLe, OpIfEqz, OpIfNez, OpGoto:
		return true
	}
	return false
}

// IsConditional reports whether the opcode is a two-way branch.
func (o Op) IsConditional() bool { return o.IsBranch() && o != OpGoto }

// IsBinop reports whether the opcode is a two-register arithmetic operation.
func (o Op) IsBinop() bool {
	switch o {
	case OpAdd, OpSub, OpMul, OpDiv, OpRem, OpAnd, OpOr, OpXor:
		return true
	}
	return false
}

// Terminates reports whether control never falls through the opcode.
func (o Op) Terminates() bool {
	switch o {
	case OpReturn, OpReturnVoid, OpThrow, OpGoto:
		return true
	}
	return false
}

// Instruction is one bytecode instruction. Operand meaning depends on Op;
// see the opcode comments.
type Instruction struct {
	Op     Op
	A      int        // destination / first register
	B      int        // source / object register
	C      int        // second source / index register
	Lit    int64      // integer literal
	Str    string     // string literal
	Type   TypeDesc   // type operand
	Method *MethodRef // invoke target
	Field  *FieldRef  // field operand
	Args   []int      // invoke argument registers (receiver first for instance kinds)
	Target int        // branch target: instruction index within the method body
}

// typeSuffix mimics dexdump's -object/-wide/-boolean opcode suffixes for
// field, array and move instructions.
func typeSuffix(t TypeDesc) string {
	switch {
	case t.IsRef():
		return "-object"
	case t == Long || t == Double:
		return "-wide"
	case t == Bool:
		return "-boolean"
	default:
		return ""
	}
}

// Format renders the instruction in dexdump style, e.g.
// "invoke-virtual {v0}, Lcom/foo/Bar;.start:()V". The rendering is what the
// on-the-fly bytecode search matches against, so it must be stable.
func (in *Instruction) Format() string {
	var buf [64]byte
	return string(in.AppendFormat(buf[:0]))
}

// AppendFormat appends the Format rendering of the instruction to dst.
// Invoke and field instructions must carry their Method or Field ref
// (Decode rejects any that do not).
func (in *Instruction) AppendFormat(dst []byte) []byte {
	dst = append(dst, in.Op.Mnemonic()...)
	switch in.Op {
	case OpConst:
		dst = strconv.AppendInt(append(appendRegs(dst, in.A), ", #int "...), in.Lit, 10)
	case OpConstString:
		dst = strconv.AppendQuote(append(appendRegs(dst, in.A), ", "...), in.Str)
	case OpConstClass, OpNewInstance, OpCheckCast:
		dst = append(append(appendRegs(dst, in.A), ", "...), in.Type...)
	case OpConstNull:
		dst = append(appendRegs(dst, in.A), ", #null"...)
	case OpMove:
		dst = appendRegs(dst, in.A, in.B)
	case OpMoveResult, OpReturn, OpThrow:
		dst = appendRegs(dst, in.A)
	case OpNewArray, OpInstanceOf:
		dst = append(append(appendRegs(dst, in.A, in.B), ", "...), in.Type...)
	case OpInvokeVirtual, OpInvokeDirect, OpInvokeStatic, OpInvokeInterface, OpInvokeSuper:
		dst = append(dst, " {"...)
		for i, a := range in.Args {
			if i > 0 {
				dst = append(dst, ", "...)
			}
			dst = strconv.AppendInt(append(dst, 'v'), int64(a), 10)
		}
		dst = in.Method.AppendDexSignature(append(dst, "}, "...))
	case OpIGet, OpIPut:
		dst = appendRegs(append(dst, typeSuffix(in.Field.Type)...), in.A, in.B)
		dst = in.Field.AppendDexSignature(append(dst, ", "...))
	case OpSGet, OpSPut:
		dst = appendRegs(append(dst, typeSuffix(in.Field.Type)...), in.A)
		dst = in.Field.AppendDexSignature(append(dst, ", "...))
	case OpAGet, OpAPut, OpAdd, OpSub, OpMul, OpDiv, OpRem, OpAnd, OpOr, OpXor:
		dst = appendRegs(dst, in.A, in.B, in.C)
	case OpAddLit:
		dst = strconv.AppendInt(append(appendRegs(dst, in.A, in.B), ", #int "...), in.Lit, 10)
	case OpIfEq, OpIfNe, OpIfLt, OpIfGe, OpIfGt, OpIfLe:
		dst = AppendHex4(append(appendRegs(dst, in.A, in.B), ", "...), int64(in.Target))
	case OpIfEqz, OpIfNez:
		dst = AppendHex4(append(appendRegs(dst, in.A), ", "...), int64(in.Target))
	case OpGoto:
		dst = AppendHex4(append(dst, ' '), int64(in.Target))
	}
	return dst
}

// appendRegs appends register operands after a mnemonic: " v1, v2".
func appendRegs(dst []byte, regs ...int) []byte {
	for i, r := range regs {
		if i == 0 {
			dst = append(dst, " v"...)
		} else {
			dst = append(dst, ", v"...)
		}
		dst = strconv.AppendInt(dst, int64(r), 10)
	}
	return dst
}

// AppendHex4 appends v the way fmt's %04x renders it: lower-case hex,
// zero-padded to a width of four that counts a leading minus sign.
func AppendHex4(dst []byte, v int64) []byte {
	u, width := uint64(v), 4
	if v < 0 {
		dst = append(dst, '-')
		u, width = -u, 3
	}
	var tmp [16]byte
	digits := strconv.AppendUint(tmp[:0], u, 16)
	for n := len(digits); n < width; n++ {
		dst = append(dst, '0')
	}
	return append(dst, digits...)
}
