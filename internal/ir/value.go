// Package ir implements a typed three-address intermediate representation
// modeled on Soot's Jimple, plus the translation from dex bytecode.
// BackDroid performs all program-analysis-space work (paper Fig. 3) on this
// IR, while the search space works on the dexdump plaintext.
//
// The statement and expression taxonomy follows the paper's Sec. V: the
// slicer and forward analysis handle DefinitionStmt (AssignStmt,
// IdentityStmt), InvokeStmt and ReturnStmt, and five expression kinds:
// BinopExpr, CastExpr, InvokeExpr, NewExpr and NewArrayExpr. The paper's
// sixth, Shimple's phi, is not modelled (DESIGN.md Sec. 1).
package ir

import (
	"fmt"
	"strconv"
	"strings"

	"backdroid/internal/dex"
)

// Value is anything that can appear on either side of an assignment.
type Value interface {
	fmt.Stringer
	value()
}

// Local is a method-local variable: dex register Reg. In marks the
// method's incoming-argument registers (the first Ins), which are
// spelled r<Reg>; the others are spelled $r<Reg>. The engine keys
// locals on Reg alone and spells a name only where it leaves the
// engine: statement rendering, SSG dumps and values.
type Local struct {
	Reg  int
	In   bool
	Type dex.TypeDesc
}

func (l *Local) value()         {}
func (l *Local) String() string { return regName(l.Reg, l.In) }

// spelledRegs is how many registers regNames spells ahead of use; the
// rare register above it is spelled when it is printed.
const spelledRegs = 256

// regPrefixes spells the two register kinds: index 1 for In.
var regPrefixes = [2]string{"$r", "r"}

// regNames holds the spellings of the registers below spelledRegs,
// indexed like regPrefixes and shared by every body.
var regNames = func() (t [2][spelledRegs]string) {
	for k, prefix := range regPrefixes {
		for i := range spelledRegs {
			t[k][i] = prefix + strconv.Itoa(i)
		}
	}
	return t
}()

// regName spells register r: "r<r>" when in, "$r<r>" otherwise.
func regName(r int, in bool) string {
	k := 0
	if in {
		k = 1
	}
	if r >= 0 && r < spelledRegs {
		return regNames[k][r]
	}
	return regPrefixes[k] + strconv.Itoa(r)
}

// IntConst is an integer constant.
type IntConst struct{ V int64 }

func (IntConst) value()           {}
func (c IntConst) String() string { return strconv.FormatInt(c.V, 10) }

// StringConst is a string constant.
type StringConst struct{ V string }

func (StringConst) value()           {}
func (c StringConst) String() string { return strconv.Quote(c.V) }

// ClassConst is a class literal (const-class).
type ClassConst struct{ Class string }

func (ClassConst) value()           {}
func (c ClassConst) String() string { return "class " + string(dex.T(c.Class)) }

// NullConst is the null literal.
type NullConst struct{}

func (NullConst) value()         {}
func (NullConst) String() string { return "null" }

// ThisRef is the @this identity value.
type ThisRef struct{ Class string }

func (*ThisRef) value()           {}
func (t *ThisRef) String() string { return "@this: " + t.Class }

// ParamRef is the @parameterN identity value.
type ParamRef struct {
	Index int
	Type  dex.TypeDesc
}

func (*ParamRef) value() {}
func (p *ParamRef) String() string {
	return fmt.Sprintf("@parameter%d: %s", p.Index, p.Type.Human())
}

// InstanceFieldRef is obj.field.
type InstanceFieldRef struct {
	Base  *Local
	Field dex.FieldRef
}

func (*InstanceFieldRef) value() {}
func (f *InstanceFieldRef) String() string {
	return f.Base.String() + "." + f.Field.SootSignature()
}

// StaticFieldRef is a static field access.
type StaticFieldRef struct{ Field dex.FieldRef }

func (*StaticFieldRef) value()           {}
func (f *StaticFieldRef) String() string { return f.Field.SootSignature() }

// ArrayRef is arr[idx].
type ArrayRef struct {
	Base  *Local
	Index Value
}

func (*ArrayRef) value()           {}
func (a *ArrayRef) String() string { return a.Base.String() + "[" + a.Index.String() + "]" }

// BinopExpr is a binary operation (paper expression kind 1 of 6).
type BinopExpr struct {
	Op    string // "+", "-", "*", "/", "%", "&", "|", "^", "==", "!=", "<", ">=", ">", "<=", "instanceof"
	Left  Value
	Right Value
}

func (*BinopExpr) value() {}
func (b *BinopExpr) String() string {
	return b.Left.String() + " " + b.Op + " " + b.Right.String()
}

// CastExpr is (type) value (paper expression kind 2 of 6).
type CastExpr struct {
	Type dex.TypeDesc
	Val  Value
}

func (*CastExpr) value()           {}
func (c *CastExpr) String() string { return "(" + c.Type.Human() + ") " + c.Val.String() }

// InvokeKind distinguishes the dispatch flavors, mirroring Jimple's invoke
// expressions.
type InvokeKind int

// Invoke kinds.
const (
	KindVirtual InvokeKind = iota + 1
	KindSpecial            // constructors, private methods (invoke-direct)
	KindStatic
	KindInterface
	KindSuper
)

var invokeKeywords = map[InvokeKind]string{
	KindVirtual:   "virtualinvoke",
	KindSpecial:   "specialinvoke",
	KindStatic:    "staticinvoke",
	KindInterface: "interfaceinvoke",
	KindSuper:     "specialinvoke",
}

// Keyword returns the Jimple keyword of the invoke kind.
func (k InvokeKind) Keyword() string { return invokeKeywords[k] }

// InvokeExpr is a method invocation (paper expression kind 3 of 6).
type InvokeExpr struct {
	Kind   InvokeKind
	Base   *Local // nil for static invokes
	Method dex.MethodRef
	Args   []Value // declared parameters only; receiver is Base
}

func (*InvokeExpr) value() {}
func (e *InvokeExpr) String() string {
	args := make([]string, len(e.Args))
	for i, a := range e.Args {
		args[i] = a.String()
	}
	argList := "(" + strings.Join(args, ", ") + ")"
	if e.Base == nil {
		return e.Kind.Keyword() + " " + e.Method.SootSignature() + argList
	}
	return e.Kind.Keyword() + " " + e.Base.String() + "." + e.Method.SootSignature() + argList
}

// NewExpr is object allocation (paper expression kind 4 of 6).
type NewExpr struct{ Class string }

func (*NewExpr) value()           {}
func (n *NewExpr) String() string { return "new " + n.Class }

// NewArrayExpr is array allocation (paper expression kind 5 of 6).
type NewArrayExpr struct {
	Elem dex.TypeDesc
	Size Value
}

func (*NewArrayExpr) value() {}
func (n *NewArrayExpr) String() string {
	return "newarray (" + n.Elem.Human() + ")[" + n.Size.String() + "]"
}

// EachLocal calls fn for each local a value directly references, in
// operand order: a field or array base counts, the contents of the
// object it names do not. It builds no slice, so the slicer calls it on
// every statement it records.
func EachLocal(v Value, fn func(*Local)) {
	switch t := v.(type) {
	case *Local:
		fn(t)
	case *InstanceFieldRef:
		fn(t.Base)
	case *ArrayRef:
		fn(t.Base)
		EachLocal(t.Index, fn)
	case *BinopExpr:
		EachLocal(t.Left, fn)
		EachLocal(t.Right, fn)
	case *CastExpr:
		EachLocal(t.Val, fn)
	case *InvokeExpr:
		if t.Base != nil {
			fn(t.Base)
		}
		for _, a := range t.Args {
			EachLocal(a, fn)
		}
	case *NewArrayExpr:
		EachLocal(t.Size, fn)
	}
}
