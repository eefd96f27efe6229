package ir

import "fmt"

// Unit is one IR statement, mirroring Soot's Unit. The SSG wraps raw typed
// Units in SSGUnit nodes (paper Sec. V-A).
type Unit interface {
	fmt.Stringer
	unit()
}

// Definition is implemented by statements that define a value
// (Soot's DefinitionStmt: AssignStmt and IdentityStmt).
type Definition interface {
	Unit
	DefLHS() Value
	DefRHS() Value
}

// IdentityStmt binds a local to @this or @parameterN.
type IdentityStmt struct {
	LHS *Local
	RHS Value // *ThisRef or *ParamRef
}

func (*IdentityStmt) unit()            {}
func (s *IdentityStmt) DefLHS() Value  { return s.LHS }
func (s *IdentityStmt) DefRHS() Value  { return s.RHS }
func (s *IdentityStmt) String() string { return s.LHS.String() + " := " + s.RHS.String() }

// AssignStmt is lhs = rhs.
type AssignStmt struct {
	LHS Value // *Local, *InstanceFieldRef, *StaticFieldRef or *ArrayRef
	RHS Value
}

func (*AssignStmt) unit()            {}
func (s *AssignStmt) DefLHS() Value  { return s.LHS }
func (s *AssignStmt) DefRHS() Value  { return s.RHS }
func (s *AssignStmt) String() string { return s.LHS.String() + " = " + s.RHS.String() }

// InvokeStmt is a call whose result (if any) is discarded.
type InvokeStmt struct {
	Invoke *InvokeExpr
}

func (*InvokeStmt) unit()            {}
func (s *InvokeStmt) String() string { return s.Invoke.String() }

// IfStmt is a conditional branch to Target (a unit index).
type IfStmt struct {
	Cond   *BinopExpr
	Target int
}

func (*IfStmt) unit() {}
func (s *IfStmt) String() string {
	return fmt.Sprintf("if %s goto %d", s.Cond.String(), s.Target)
}

// GotoStmt is an unconditional branch to Target (a unit index).
type GotoStmt struct{ Target int }

func (*GotoStmt) unit()            {}
func (s *GotoStmt) String() string { return fmt.Sprintf("goto %d", s.Target) }

// ReturnStmt returns Val (nil for void returns).
type ReturnStmt struct{ Val Value }

func (*ReturnStmt) unit() {}
func (s *ReturnStmt) String() string {
	if s.Val == nil {
		return "return"
	}
	return "return " + s.Val.String()
}

// ThrowStmt throws Val.
type ThrowStmt struct{ Val Value }

func (*ThrowStmt) unit()            {}
func (s *ThrowStmt) String() string { return "throw " + s.Val.String() }

// NopStmt does nothing.
type NopStmt struct{}

func (*NopStmt) unit()            {}
func (s *NopStmt) String() string { return "nop" }

// InvokeOf extracts the invoke expression embedded in a unit, or nil: an
// InvokeStmt's call or an AssignStmt whose RHS is an InvokeExpr.
func InvokeOf(u Unit) *InvokeExpr {
	switch s := u.(type) {
	case *InvokeStmt:
		return s.Invoke
	case *AssignStmt:
		if inv, ok := s.RHS.(*InvokeExpr); ok {
			return inv
		}
	}
	return nil
}
