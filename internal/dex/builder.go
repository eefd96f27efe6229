package dex

import "fmt"

// ClassBuilder assembles a Class definition fluently. It exists to make
// synthetic app generation and tests readable.
type ClassBuilder struct {
	c *Class
}

// NewClass starts building a public class with the given dotted name that
// extends java.lang.Object.
func NewClass(name string) *ClassBuilder {
	return &ClassBuilder{c: &Class{
		Name:  name,
		Super: "java.lang.Object",
		Flags: AccPublic,
	}}
}

// NewInterface starts building a public interface.
func NewInterface(name string) *ClassBuilder {
	b := NewClass(name)
	b.c.Flags |= AccInterface | AccAbstract
	return b
}

// Extends sets the superclass.
func (b *ClassBuilder) Extends(super string) *ClassBuilder {
	b.c.Super = super
	return b
}

// Implements appends implemented interfaces.
func (b *ClassBuilder) Implements(ifaces ...string) *ClassBuilder {
	b.c.Interfaces = append(b.c.Interfaces, ifaces...)
	return b
}

// Field adds an instance field.
func (b *ClassBuilder) Field(name string, typ TypeDesc) *ClassBuilder {
	b.c.Fields = append(b.c.Fields, &Field{
		Ref:   NewFieldRef(b.c.Name, name, typ),
		Flags: AccPublic,
	})
	return b
}

// StaticField adds a static field.
func (b *ClassBuilder) StaticField(name string, typ TypeDesc) *ClassBuilder {
	b.c.Fields = append(b.c.Fields, &Field{
		Ref:   NewFieldRef(b.c.Name, name, typ),
		Flags: AccPublic | AccStatic,
	})
	return b
}

// Method starts a public instance method body.
func (b *ClassBuilder) Method(name string, ret TypeDesc, params ...TypeDesc) *MethodBuilder {
	return b.method(name, AccPublic, ret, params)
}

// PrivateMethod starts a private instance method body.
func (b *ClassBuilder) PrivateMethod(name string, ret TypeDesc, params ...TypeDesc) *MethodBuilder {
	return b.method(name, AccPrivate, ret, params)
}

// StaticMethod starts a public static method body.
func (b *ClassBuilder) StaticMethod(name string, ret TypeDesc, params ...TypeDesc) *MethodBuilder {
	return b.method(name, AccPublic|AccStatic, ret, params)
}

// Constructor starts a public constructor body.
func (b *ClassBuilder) Constructor(params ...TypeDesc) *MethodBuilder {
	return b.method("<init>", AccPublic|AccConstructor, Void, params)
}

// StaticInitializer starts the <clinit> body.
func (b *ClassBuilder) StaticInitializer() *MethodBuilder {
	return b.method("<clinit>", AccStatic|AccConstructor, Void, nil)
}

// AbstractMethod declares a body-less method (for interfaces and abstract
// classes).
func (b *ClassBuilder) AbstractMethod(name string, ret TypeDesc, params ...TypeDesc) *ClassBuilder {
	m := &Method{
		Ref:   NewMethodRef(b.c.Name, name, ret, params...),
		Flags: AccPublic | AccAbstract,
	}
	b.c.Methods = append(b.c.Methods, m)
	return b
}

func (b *ClassBuilder) method(name string, flags AccessFlags, ret TypeDesc, params []TypeDesc) *MethodBuilder {
	m := &Method{
		Ref:   NewMethodRef(b.c.Name, name, ret, params...),
		Flags: flags,
	}
	ins := len(params)
	if !flags.Has(AccStatic) {
		ins++ // receiver
	}
	m.Ins = ins
	m.Registers = ins
	b.c.Methods = append(b.c.Methods, m)
	return &MethodBuilder{class: b, m: m, labels: make(map[string]int)}
}

// Build finalizes and returns the class.
func (b *ClassBuilder) Build() *Class { return b.c }

// MethodBuilder assembles a method body. Registers are allocated on demand
// via Reg; parameter registers are v0..Ins-1 (receiver first for instance
// methods). Branch targets use string labels resolved at Done time.
type MethodBuilder struct {
	class   *ClassBuilder
	m       *Method
	labels  map[string]int
	pending []pendingBranch
}

type pendingBranch struct {
	instr int
	label string
}

// Ref returns the reference of the method under construction.
func (mb *MethodBuilder) Ref() MethodRef { return mb.m.Ref }

// This returns the receiver register (v0) of an instance method.
func (mb *MethodBuilder) This() int { return 0 }

// Param returns the register holding the i-th declared parameter.
func (mb *MethodBuilder) Param(i int) int {
	if mb.m.IsStatic() {
		return i
	}
	return i + 1
}

// Reg allocates a fresh scratch register.
func (mb *MethodBuilder) Reg() int {
	r := mb.m.Registers
	mb.m.Registers++
	return r
}

func (mb *MethodBuilder) emit(in Instruction) *MethodBuilder {
	mb.m.Code = append(mb.m.Code, in)
	return mb
}

// Const emits A := lit.
func (mb *MethodBuilder) Const(a int, lit int64) *MethodBuilder {
	return mb.emit(Instruction{Op: OpConst, A: a, Lit: lit})
}

// ConstString emits A := "s".
func (mb *MethodBuilder) ConstString(a int, s string) *MethodBuilder {
	return mb.emit(Instruction{Op: OpConstString, A: a, Str: s})
}

// ConstClass emits A := class literal.
func (mb *MethodBuilder) ConstClass(a int, class string) *MethodBuilder {
	return mb.emit(Instruction{Op: OpConstClass, A: a, Type: T(class)})
}

// ConstNull emits A := null.
func (mb *MethodBuilder) ConstNull(a int) *MethodBuilder {
	return mb.emit(Instruction{Op: OpConstNull, A: a})
}

// Move emits A := B.
func (mb *MethodBuilder) Move(a, b int) *MethodBuilder {
	return mb.emit(Instruction{Op: OpMove, A: a, B: b})
}

// MoveResult emits A := result of the preceding invoke.
func (mb *MethodBuilder) MoveResult(a int) *MethodBuilder {
	return mb.emit(Instruction{Op: OpMoveResult, A: a})
}

// New emits A := new class.
func (mb *MethodBuilder) New(a int, class string) *MethodBuilder {
	return mb.emit(Instruction{Op: OpNewInstance, A: a, Type: T(class)})
}

// NewArray emits A := new elem[B].
func (mb *MethodBuilder) NewArray(a, size int, elem TypeDesc) *MethodBuilder {
	return mb.emit(Instruction{Op: OpNewArray, A: a, B: size, Type: Array(elem)})
}

// Invoke emits an invoke of the given kind.
func (mb *MethodBuilder) Invoke(op Op, ref MethodRef, args ...int) *MethodBuilder {
	if !op.IsInvoke() {
		panic(fmt.Sprintf("dex: Invoke with non-invoke op %v", op))
	}
	r := ref
	return mb.emit(Instruction{Op: op, Method: &r, Args: args})
}

// InvokeVirtual emits invoke-virtual {recv, args...}, ref.
func (mb *MethodBuilder) InvokeVirtual(ref MethodRef, args ...int) *MethodBuilder {
	return mb.Invoke(OpInvokeVirtual, ref, args...)
}

// InvokeDirect emits invoke-direct {recv, args...}, ref.
func (mb *MethodBuilder) InvokeDirect(ref MethodRef, args ...int) *MethodBuilder {
	return mb.Invoke(OpInvokeDirect, ref, args...)
}

// InvokeStatic emits invoke-static {args...}, ref.
func (mb *MethodBuilder) InvokeStatic(ref MethodRef, args ...int) *MethodBuilder {
	return mb.Invoke(OpInvokeStatic, ref, args...)
}

// InvokeInterface emits invoke-interface {recv, args...}, ref.
func (mb *MethodBuilder) InvokeInterface(ref MethodRef, args ...int) *MethodBuilder {
	return mb.Invoke(OpInvokeInterface, ref, args...)
}

// IGet emits A := B.field.
func (mb *MethodBuilder) IGet(a, obj int, field FieldRef) *MethodBuilder {
	f := field
	return mb.emit(Instruction{Op: OpIGet, A: a, B: obj, Field: &f})
}

// IPut emits B.field := A.
func (mb *MethodBuilder) IPut(a, obj int, field FieldRef) *MethodBuilder {
	f := field
	return mb.emit(Instruction{Op: OpIPut, A: a, B: obj, Field: &f})
}

// SGet emits A := static field.
func (mb *MethodBuilder) SGet(a int, field FieldRef) *MethodBuilder {
	f := field
	return mb.emit(Instruction{Op: OpSGet, A: a, Field: &f})
}

// SPut emits static field := A.
func (mb *MethodBuilder) SPut(a int, field FieldRef) *MethodBuilder {
	f := field
	return mb.emit(Instruction{Op: OpSPut, A: a, Field: &f})
}

// AGet emits A := B[C].
func (mb *MethodBuilder) AGet(a, arr, idx int) *MethodBuilder {
	return mb.emit(Instruction{Op: OpAGet, A: a, B: arr, C: idx})
}

// APut emits B[C] := A.
func (mb *MethodBuilder) APut(a, arr, idx int) *MethodBuilder {
	return mb.emit(Instruction{Op: OpAPut, A: a, B: arr, C: idx})
}

// Binop emits A := B op C.
func (mb *MethodBuilder) Binop(op Op, a, b, c int) *MethodBuilder {
	if !op.IsBinop() {
		panic(fmt.Sprintf("dex: Binop with non-binop op %v", op))
	}
	return mb.emit(Instruction{Op: op, A: a, B: b, C: c})
}

// AddLit emits A := B + lit.
func (mb *MethodBuilder) AddLit(a, b int, lit int64) *MethodBuilder {
	return mb.emit(Instruction{Op: OpAddLit, A: a, B: b, Lit: lit})
}

// Label defines a branch target at the current position.
func (mb *MethodBuilder) Label(name string) *MethodBuilder {
	mb.labels[name] = len(mb.m.Code)
	return mb
}

// If emits a two-register conditional branch to label.
func (mb *MethodBuilder) If(op Op, a, b int, label string) *MethodBuilder {
	mb.pending = append(mb.pending, pendingBranch{instr: len(mb.m.Code), label: label})
	return mb.emit(Instruction{Op: op, A: a, B: b})
}

// IfZ emits a one-register zero-test branch to label.
func (mb *MethodBuilder) IfZ(op Op, a int, label string) *MethodBuilder {
	mb.pending = append(mb.pending, pendingBranch{instr: len(mb.m.Code), label: label})
	return mb.emit(Instruction{Op: op, A: a})
}

// Goto emits an unconditional branch to label.
func (mb *MethodBuilder) Goto(label string) *MethodBuilder {
	mb.pending = append(mb.pending, pendingBranch{instr: len(mb.m.Code), label: label})
	return mb.emit(Instruction{Op: OpGoto})
}

// Return emits return A.
func (mb *MethodBuilder) Return(a int) *MethodBuilder {
	return mb.emit(Instruction{Op: OpReturn, A: a})
}

// ReturnVoid emits return-void.
func (mb *MethodBuilder) ReturnVoid() *MethodBuilder {
	return mb.emit(Instruction{Op: OpReturnVoid})
}

// CheckCast emits A := (class) A.
func (mb *MethodBuilder) CheckCast(a int, class string) *MethodBuilder {
	return mb.emit(Instruction{Op: OpCheckCast, A: a, Type: T(class)})
}

// Done resolves labels and returns the enclosing class builder. It panics
// on an undefined label, which is a programming error in the generator.
func (mb *MethodBuilder) Done() *ClassBuilder {
	for _, p := range mb.pending {
		target, ok := mb.labels[p.label]
		if !ok {
			panic(fmt.Sprintf("dex: undefined label %q in %s", p.label, mb.m.Ref))
		}
		mb.m.Code[p.instr].Target = target
	}
	mb.pending = nil
	return mb.class
}
