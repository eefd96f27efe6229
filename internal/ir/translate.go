package ir

import (
	"fmt"

	"backdroid/internal/dex"
)

// TranslateError reports a bytecode-to-IR transformation failure. The
// paper's evaluation notes two apps failing exactly here ("the format
// transformation from bytecode to IR"), so the error is a named type that
// callers can classify.
type TranslateError struct {
	Method dex.MethodRef
	Reason string
}

func (e *TranslateError) Error() string {
	return fmt.Sprintf("ir: translating %s: %s", e.Method, e.Reason)
}

var binopSymbols = map[dex.Op]string{
	dex.OpAdd: "+",
	dex.OpSub: "-",
	dex.OpMul: "*",
	dex.OpDiv: "/",
	dex.OpRem: "%",
	dex.OpAnd: "&",
	dex.OpOr:  "|",
	dex.OpXor: "^",
}

var condSymbols = map[dex.Op]string{
	dex.OpIfEq:  "==",
	dex.OpIfNe:  "!=",
	dex.OpIfLt:  "<",
	dex.OpIfGe:  ">=",
	dex.OpIfGt:  ">",
	dex.OpIfLe:  "<=",
	dex.OpIfEqz: "==",
	dex.OpIfNez: "!=",
}

var invokeKinds = map[dex.Op]InvokeKind{
	dex.OpInvokeVirtual:   KindVirtual,
	dex.OpInvokeDirect:    KindSpecial,
	dex.OpInvokeStatic:    KindStatic,
	dex.OpInvokeInterface: KindInterface,
	dex.OpInvokeSuper:     KindSuper,
}

// maxRegisters is the register-count limit of the Dalvik format, where
// the count is a u16. The locals table is sized by the count, so a
// decoded method claiming more is refused before anything is allocated.
const maxRegisters = 1<<16 - 1

// Translate converts a dex method body into IR. Identity statements for
// @this/@parameters come first; each subsequent unit corresponds to one dex
// instruction, except invoke+move-result pairs which merge into a single
// AssignStmt (as Soot does).
func Translate(m *dex.Method) (*Body, error) {
	if m.IsAbstract() {
		return nil, &TranslateError{Method: m.Ref, Reason: "abstract method has no body"}
	}
	if m.Registers < 0 || m.Registers > maxRegisters {
		return nil, &TranslateError{Method: m.Ref, Reason: fmt.Sprintf("register count %d outside [0, %d]", m.Registers, maxRegisters)}
	}
	b := &Body{Method: m.Ref, Flags: m.Flags, This: -1}

	locals := make([]Local, m.Registers)
	for i := range locals {
		locals[i] = Local{Reg: i, In: i < m.Ins, Type: dex.ObjectT}
	}
	b.Locals = locals
	local := func(r int) (*Local, error) {
		if r < 0 || r >= len(locals) {
			return nil, &TranslateError{Method: m.Ref, Reason: fmt.Sprintf("register v%d out of range", r)}
		}
		return &locals[r], nil
	}

	// Identity units: unit r binds register r.
	reg := 0
	if !m.IsStatic() {
		if len(locals) == 0 {
			return nil, &TranslateError{Method: m.Ref, Reason: "instance method without a receiver register"}
		}
		locals[0].Type = dex.T(m.Ref.Class)
		b.Units = append(b.Units, &IdentityStmt{LHS: &locals[0], RHS: &ThisRef{Class: m.Ref.Class}})
		b.This = 0
		reg = 1
	}
	for pi, pt := range m.Ref.Params {
		if reg >= len(locals) {
			return nil, &TranslateError{Method: m.Ref, Reason: "fewer registers than parameters"}
		}
		locals[reg].Type = pt
		b.Units = append(b.Units, &IdentityStmt{LHS: &locals[reg], RHS: &ParamRef{Index: pi, Type: pt}})
		reg++
	}
	b.identities = reg

	// First pass: translate instructions, merging invoke+move-result.
	code := m.Instructions()
	dexToUnit := make([]int, len(code))
	type branchFix struct {
		unit      int
		dexTarget int
	}
	var fixes []branchFix

	for i := 0; i < len(code); i++ {
		in := &code[i]
		unitIdx := len(b.Units)
		dexToUnit[i] = unitIdx

		switch in.Op {
		case dex.OpNop:
			b.Units = append(b.Units, &NopStmt{})

		case dex.OpConst:
			dst, err := local(in.A)
			if err != nil {
				return nil, err
			}
			dst.Type = dex.Int
			b.Units = append(b.Units, &AssignStmt{LHS: dst, RHS: IntConst{V: in.Lit}})

		case dex.OpConstString:
			dst, err := local(in.A)
			if err != nil {
				return nil, err
			}
			dst.Type = dex.StringT
			b.Units = append(b.Units, &AssignStmt{LHS: dst, RHS: StringConst{V: in.Str}})

		case dex.OpConstClass:
			dst, err := local(in.A)
			if err != nil {
				return nil, err
			}
			dst.Type = dex.T("java.lang.Class")
			b.Units = append(b.Units, &AssignStmt{LHS: dst, RHS: ClassConst{Class: in.Type.ClassName()}})

		case dex.OpConstNull:
			dst, err := local(in.A)
			if err != nil {
				return nil, err
			}
			b.Units = append(b.Units, &AssignStmt{LHS: dst, RHS: NullConst{}})

		case dex.OpMove:
			dst, err := local(in.A)
			if err != nil {
				return nil, err
			}
			src, err := local(in.B)
			if err != nil {
				return nil, err
			}
			dst.Type = src.Type
			b.Units = append(b.Units, &AssignStmt{LHS: dst, RHS: src})

		case dex.OpMoveResult:
			return nil, &TranslateError{Method: m.Ref, Reason: fmt.Sprintf("move-result at %d without preceding invoke", i)}

		case dex.OpNewInstance:
			dst, err := local(in.A)
			if err != nil {
				return nil, err
			}
			dst.Type = in.Type
			b.Units = append(b.Units, &AssignStmt{LHS: dst, RHS: &NewExpr{Class: in.Type.ClassName()}})

		case dex.OpNewArray:
			dst, err := local(in.A)
			if err != nil {
				return nil, err
			}
			size, err := local(in.B)
			if err != nil {
				return nil, err
			}
			dst.Type = in.Type
			b.Units = append(b.Units, &AssignStmt{LHS: dst, RHS: &NewArrayExpr{Elem: in.Type.Elem(), Size: size}})

		case dex.OpInvokeVirtual, dex.OpInvokeDirect, dex.OpInvokeStatic, dex.OpInvokeInterface, dex.OpInvokeSuper:
			inv, err := makeInvoke(m, in, local)
			if err != nil {
				return nil, err
			}
			// Merge a following move-result into a single AssignStmt.
			if i+1 < len(code) && code[i+1].Op == dex.OpMoveResult {
				dst, err := local(code[i+1].A)
				if err != nil {
					return nil, err
				}
				dst.Type = in.Method.Ret
				b.Units = append(b.Units, &AssignStmt{LHS: dst, RHS: inv})
				dexToUnit[i+1] = unitIdx
				i++
			} else {
				b.Units = append(b.Units, &InvokeStmt{Invoke: inv})
			}

		case dex.OpIGet:
			dst, err := local(in.A)
			if err != nil {
				return nil, err
			}
			obj, err := local(in.B)
			if err != nil {
				return nil, err
			}
			dst.Type = in.Field.Type
			b.Units = append(b.Units, &AssignStmt{LHS: dst, RHS: &InstanceFieldRef{Base: obj, Field: *in.Field}})

		case dex.OpIPut:
			src, err := local(in.A)
			if err != nil {
				return nil, err
			}
			obj, err := local(in.B)
			if err != nil {
				return nil, err
			}
			b.Units = append(b.Units, &AssignStmt{LHS: &InstanceFieldRef{Base: obj, Field: *in.Field}, RHS: src})

		case dex.OpSGet:
			dst, err := local(in.A)
			if err != nil {
				return nil, err
			}
			dst.Type = in.Field.Type
			b.Units = append(b.Units, &AssignStmt{LHS: dst, RHS: &StaticFieldRef{Field: *in.Field}})

		case dex.OpSPut:
			src, err := local(in.A)
			if err != nil {
				return nil, err
			}
			b.Units = append(b.Units, &AssignStmt{LHS: &StaticFieldRef{Field: *in.Field}, RHS: src})

		case dex.OpAGet:
			dst, err := local(in.A)
			if err != nil {
				return nil, err
			}
			arr, err := local(in.B)
			if err != nil {
				return nil, err
			}
			idx, err := local(in.C)
			if err != nil {
				return nil, err
			}
			dst.Type = arr.Type.Elem()
			b.Units = append(b.Units, &AssignStmt{LHS: dst, RHS: &ArrayRef{Base: arr, Index: idx}})

		case dex.OpAPut:
			src, err := local(in.A)
			if err != nil {
				return nil, err
			}
			arr, err := local(in.B)
			if err != nil {
				return nil, err
			}
			idx, err := local(in.C)
			if err != nil {
				return nil, err
			}
			b.Units = append(b.Units, &AssignStmt{LHS: &ArrayRef{Base: arr, Index: idx}, RHS: src})

		case dex.OpAdd, dex.OpSub, dex.OpMul, dex.OpDiv, dex.OpRem, dex.OpAnd, dex.OpOr, dex.OpXor:
			dst, err := local(in.A)
			if err != nil {
				return nil, err
			}
			lhs, err := local(in.B)
			if err != nil {
				return nil, err
			}
			rhs, err := local(in.C)
			if err != nil {
				return nil, err
			}
			dst.Type = dex.Int
			b.Units = append(b.Units, &AssignStmt{LHS: dst, RHS: &BinopExpr{Op: binopSymbols[in.Op], Left: lhs, Right: rhs}})

		case dex.OpAddLit:
			dst, err := local(in.A)
			if err != nil {
				return nil, err
			}
			lhs, err := local(in.B)
			if err != nil {
				return nil, err
			}
			dst.Type = dex.Int
			b.Units = append(b.Units, &AssignStmt{LHS: dst, RHS: &BinopExpr{Op: "+", Left: lhs, Right: IntConst{V: in.Lit}}})

		case dex.OpIfEq, dex.OpIfNe, dex.OpIfLt, dex.OpIfGe, dex.OpIfGt, dex.OpIfLe:
			a, err := local(in.A)
			if err != nil {
				return nil, err
			}
			bb, err := local(in.B)
			if err != nil {
				return nil, err
			}
			fixes = append(fixes, branchFix{unit: unitIdx, dexTarget: in.Target})
			b.Units = append(b.Units, &IfStmt{Cond: &BinopExpr{Op: condSymbols[in.Op], Left: a, Right: bb}})

		case dex.OpIfEqz, dex.OpIfNez:
			a, err := local(in.A)
			if err != nil {
				return nil, err
			}
			fixes = append(fixes, branchFix{unit: unitIdx, dexTarget: in.Target})
			b.Units = append(b.Units, &IfStmt{Cond: &BinopExpr{Op: condSymbols[in.Op], Left: a, Right: IntConst{V: 0}}})

		case dex.OpGoto:
			fixes = append(fixes, branchFix{unit: unitIdx, dexTarget: in.Target})
			b.Units = append(b.Units, &GotoStmt{})

		case dex.OpReturn:
			v, err := local(in.A)
			if err != nil {
				return nil, err
			}
			b.Units = append(b.Units, &ReturnStmt{Val: v})

		case dex.OpReturnVoid:
			b.Units = append(b.Units, &ReturnStmt{})

		case dex.OpCheckCast:
			dst, err := local(in.A)
			if err != nil {
				return nil, err
			}
			b.Units = append(b.Units, &AssignStmt{LHS: dst, RHS: &CastExpr{Type: in.Type, Val: dst}})
			dst.Type = in.Type

		case dex.OpInstanceOf:
			dst, err := local(in.A)
			if err != nil {
				return nil, err
			}
			src, err := local(in.B)
			if err != nil {
				return nil, err
			}
			dst.Type = dex.Bool
			b.Units = append(b.Units, &AssignStmt{LHS: dst, RHS: &BinopExpr{Op: "instanceof", Left: src, Right: ClassConst{Class: in.Type.ClassName()}}})

		case dex.OpThrow:
			v, err := local(in.A)
			if err != nil {
				return nil, err
			}
			b.Units = append(b.Units, &ThrowStmt{Val: v})

		default:
			return nil, &TranslateError{Method: m.Ref, Reason: fmt.Sprintf("unknown opcode %d at %d", in.Op, i)}
		}
	}

	// Second pass: remap dex branch targets to unit indexes.
	for _, fx := range fixes {
		if fx.dexTarget < 0 || fx.dexTarget >= len(code) {
			return nil, &TranslateError{Method: m.Ref, Reason: fmt.Sprintf("branch target %d out of range", fx.dexTarget)}
		}
		target := dexToUnit[fx.dexTarget]
		switch s := b.Units[fx.unit].(type) {
		case *IfStmt:
			s.Target = target
		case *GotoStmt:
			s.Target = target
		}
	}
	return b, nil
}

func makeInvoke(m *dex.Method, in *dex.Instruction, local func(int) (*Local, error)) (*InvokeExpr, error) {
	if in.Method == nil {
		return nil, &TranslateError{Method: m.Ref, Reason: "invoke without method reference"}
	}
	kind := invokeKinds[in.Op]
	inv := &InvokeExpr{Kind: kind, Method: *in.Method}
	argRegs := in.Args
	if kind != KindStatic {
		if len(argRegs) == 0 {
			return nil, &TranslateError{Method: m.Ref, Reason: "instance invoke without receiver"}
		}
		base, err := local(argRegs[0])
		if err != nil {
			return nil, err
		}
		inv.Base = base
		argRegs = argRegs[1:]
	}
	if len(argRegs) != len(in.Method.Params) {
		return nil, &TranslateError{Method: m.Ref, Reason: fmt.Sprintf(
			"invoke %s: %d args for %d params", in.Method.SootSignature(), len(argRegs), len(in.Method.Params))}
	}
	for _, r := range argRegs {
		l, err := local(r)
		if err != nil {
			return nil, err
		}
		inv.Args = append(inv.Args, l)
	}
	return inv, nil
}
