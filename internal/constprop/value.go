// Package constprop implements the forward constant and points-to
// propagation over a self-contained slicing graph (paper Sec. V-B). It
// iterates the SSG nodes, models statement semantics for the six
// expression kinds (Binop, Cast, Invoke, New, NewArray, Phi), maintains
// per-flow fact maps plus one global fact map for static fields, and
// outputs the complete dataflow representation (constant or expression) of
// the target sink API parameter.
package constprop

import (
	"fmt"
	"sort"
	"strconv"

	"backdroid/internal/dex"
)

// Value is one abstract value a variable may hold.
type Value interface {
	fmt.Stringer
	value()
}

// Str is a string constant.
type Str struct{ S string }

func (Str) value()           {}
func (v Str) String() string { return strconv.Quote(v.S) }

// Num is an integer constant.
type Num struct{ N int64 }

func (Num) value()           {}
func (v Num) String() string { return strconv.FormatInt(v.N, 10) }

// Null is the null constant.
type Null struct{}

func (Null) value()         {}
func (Null) String() string { return "null" }

// Token is an opaque but identified value: a framework constant (e.g.
// SSLSocketFactory.ALLOW_ALL_HOSTNAME_VERIFIER), a class literal or an
// unmodeled API result. The paper's "expression" outputs map here.
type Token struct{ Sig string }

func (Token) value()           {}
func (v Token) String() string { return v.Sig }

// Obj is the paper's NewObj structure: a pointer to the allocation with
// its constructor class and a member map, preserving points-to identity
// along flow paths.
type Obj struct {
	ID     int
	Class  string
	Fields map[string]*Fact // field soot signature -> fact
}

// fieldKey returns the field's key in Obj.Fields, its Soot signature,
// spelling it once per field per pass.
func (a *analysis) fieldKey(f dex.FieldRef) string {
	k, ok := a.fieldKeys[f]
	if !ok {
		k = f.SootSignature()
		a.fieldKeys[f] = k
	}
	return k
}

func (*Obj) value() {}
func (v *Obj) String() string {
	return fmt.Sprintf("new %s#%d", v.Class, v.ID)
}

// Arr is the paper's ArrayObj: points-to identity of an array plus an
// index-to-value map.
type Arr struct {
	ID    int
	Elems map[int64]*Fact
}

func (*Arr) value() {}
func (v *Arr) String() string {
	return fmt.Sprintf("newarray#%d", v.ID)
}

// Unknown is the absent-information value.
type Unknown struct{}

func (Unknown) value()         {}
func (Unknown) String() string { return "unknown" }

// FactCap bounds the size of one value set. Past the cap a fact degrades
// to containing Unknown, mirroring the k-limits every practical constant /
// points-to analysis applies.
const FactCap = 24

// MaxValueBytes bounds the length of one abstract string. A
// concatenation whose result would be longer degrades to Unknown, the
// length counterpart of FactCap: without it an app doubles a string
// with every concat, and a few dozen instructions ask for gigabytes.
const MaxValueBytes = 4 << 10

// concat joins two string constants, or yields Unknown when the result
// would pass MaxValueBytes.
func concat(x, y string) Value {
	if len(x)+len(y) > MaxValueBytes {
		return Unknown{}
	}
	return Str{S: x + y}
}

// Fact is the set of possible abstract values of one variable at one
// program point; sets grow at merges (paths, phis) up to FactCap.
type Fact struct {
	values map[string]Value
}

// NewFact builds a fact holding the given values.
func NewFact(vals ...Value) *Fact {
	f := &Fact{values: make(map[string]Value, len(vals))}
	for _, v := range vals {
		f.Add(v)
	}
	return f
}

// Add inserts a value into the set; at capacity the set degrades by
// absorbing Unknown instead.
func (f *Fact) Add(v Value) {
	key := v.String()
	if _, ok := f.values[key]; ok {
		return
	}
	if len(f.values) >= FactCap {
		f.values[Unknown{}.String()] = Unknown{}
		return
	}
	f.values[key] = v
}

// HasUnknown reports whether the set contains Unknown (it saturated or an
// operand was unresolved).
func (f *Fact) HasUnknown() bool {
	_, ok := f.values[Unknown{}.String()]
	return ok
}

// Merge unions another fact into this one, under Add's cap. A union
// past FactCap keeps the FactCap smallest renderings plus Unknown, so
// the result is the same whichever side merges into which, and never
// depends on map iteration order.
func (f *Fact) Merge(other *Fact) {
	if other == nil {
		return
	}
	for k, v := range other.values {
		f.values[k] = v
	}
	unknown := Unknown{}.String()
	n := len(f.values)
	if f.HasUnknown() {
		n--
	}
	if n <= FactCap {
		return
	}
	keys := make([]string, 0, n)
	for k := range f.values {
		if k != unknown {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys[FactCap:] {
		delete(f.values, k)
	}
	f.values[unknown] = Unknown{}
}

// Values returns the values sorted by rendering, for deterministic output.
func (f *Fact) Values() []Value {
	keys := make([]string, 0, len(f.values))
	for k := range f.values {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]Value, len(keys))
	for i, k := range keys {
		out[i] = f.values[k]
	}
	return out
}

// Strings renders the values, sorted.
func (f *Fact) Strings() []string {
	vals := f.Values()
	out := make([]string, len(vals))
	for i, v := range vals {
		out[i] = v.String()
	}
	return out
}

// Empty reports whether the fact holds no values.
func (f *Fact) Empty() bool { return len(f.values) == 0 }

// Size returns the number of distinct values — the cheap change indicator
// for fixpoint loops.
func (f *Fact) Size() int { return len(f.values) }

// Singleton returns the single value when the set has exactly one element.
func (f *Fact) Singleton() (Value, bool) {
	if len(f.values) != 1 {
		return nil, false
	}
	for _, v := range f.values {
		return v, true
	}
	return nil, false
}
