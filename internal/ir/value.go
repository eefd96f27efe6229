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

// Local is a method-local variable (a translated dex register).
type Local struct {
	Name string
	Type dex.TypeDesc
}

func (l *Local) value()         {}
func (l *Local) String() string { return l.Name }

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
	return f.Base.Name + "." + f.Field.SootSignature()
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
func (a *ArrayRef) String() string { return a.Base.Name + "[" + a.Index.String() + "]" }

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
	return e.Kind.Keyword() + " " + e.Base.Name + "." + e.Method.SootSignature() + argList
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

// LocalsOf returns the locals directly referenced by a value (not
// recursing through field bases' contents, but including them as locals).
func LocalsOf(v Value) []*Local {
	switch t := v.(type) {
	case *Local:
		return []*Local{t}
	case *InstanceFieldRef:
		return []*Local{t.Base}
	case *ArrayRef:
		out := []*Local{t.Base}
		return append(out, LocalsOf(t.Index)...)
	case *BinopExpr:
		return append(LocalsOf(t.Left), LocalsOf(t.Right)...)
	case *CastExpr:
		return LocalsOf(t.Val)
	case *InvokeExpr:
		var out []*Local
		if t.Base != nil {
			out = append(out, t.Base)
		}
		for _, a := range t.Args {
			out = append(out, LocalsOf(a)...)
		}
		return out
	case *NewArrayExpr:
		return LocalsOf(t.Size)
	}
	return nil
}
