package ir

import (
	"strings"

	"backdroid/internal/dex"
)

// Body is the IR of one method: locals, identity statements binding
// parameters, and the translated units.
type Body struct {
	Method dex.MethodRef
	Flags  dex.AccessFlags
	Locals []Local // Locals[r] is register r
	Units  []Unit

	// This is the register bound to @this, or -1 in a static method.
	This int
	// identities is the number of identity statements. They lead the
	// units, and unit r binds register r.
	identities int
}

// IdentityOf returns the index of the identity statement that binds
// register r, or -1 when none does.
func (b *Body) IdentityOf(r int) int {
	if r < 0 || r >= b.identities {
		return -1
	}
	return r
}

// IsStatic reports whether the method is static.
func (b *Body) IsStatic() bool { return b.Flags.Has(dex.AccStatic) }

// Successors returns the unit indexes control may reach after unit i.
func (b *Body) Successors(i int) []int {
	if i < 0 || i >= len(b.Units) {
		return nil
	}
	var out []int
	switch s := b.Units[i].(type) {
	case *GotoStmt:
		out = append(out, s.Target)
	case *IfStmt:
		out = append(out, s.Target)
		if i+1 < len(b.Units) {
			out = append(out, i+1)
		}
	case *ReturnStmt, *ThrowStmt:
		// no successors
	default:
		if i+1 < len(b.Units) {
			out = append(out, i+1)
		}
	}
	return out
}

// Predecessors computes the full predecessor map of the body.
func (b *Body) Predecessors() [][]int {
	preds := make([][]int, len(b.Units))
	for i := range b.Units {
		for _, s := range b.Successors(i) {
			if s >= 0 && s < len(b.Units) {
				preds[s] = append(preds[s], i)
			}
		}
	}
	return preds
}

// String renders the body in a Jimple-like layout, useful in reports and
// debugging output.
func (b *Body) String() string {
	var sb strings.Builder
	sb.WriteString(b.Method.SootSignature())
	sb.WriteString(" {\n")
	for i, u := range b.Units {
		sb.WriteString("    ")
		_ = i
		sb.WriteString(u.String())
		sb.WriteString("\n")
	}
	sb.WriteString("}\n")
	return sb.String()
}
