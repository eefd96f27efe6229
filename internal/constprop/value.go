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
	"slices"
	"strconv"
	"strings"

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
	Fields map[dex.FieldRef]*Fact
}

func (*Obj) value() {}
func (v *Obj) String() string {
	return "new " + v.Class + "#" + strconv.Itoa(v.ID)
}

// Arr is the paper's ArrayObj: points-to identity of an array plus an
// index-to-value map.
type Arr struct {
	ID    int
	Elems map[int64]*Fact
}

func (*Arr) value() {}
func (v *Arr) String() string {
	return "newarray#" + strconv.Itoa(v.ID)
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
// program point; sets grow at merges (paths, phis) up to FactCap. Values
// are told apart by their rendering, and the set keeps them sorted by it.
type Fact struct {
	entries []factEntry // ascending by key, keys distinct
	first   [1]factEntry
}

// factEntry is one value of a Fact and its rendering.
type factEntry struct {
	key string
	v   Value
}

// unknownKey is the rendering of Unknown.
const unknownKey = "unknown"

// NewFact builds a fact holding the given values.
func NewFact(vals ...Value) *Fact {
	f := &Fact{}
	f.entries = f.first[:0]
	for _, v := range vals {
		f.Add(v)
	}
	return f
}

// find returns the position of key in f's entries, or where it would
// go, and whether it is there.
func (f *Fact) find(key string) (int, bool) {
	return slices.BinarySearchFunc(f.entries, key, func(e factEntry, key string) int {
		return strings.Compare(e.key, key)
	})
}

// put sets key's value, inserting the entry if key is new.
func (f *Fact) put(key string, v Value) {
	if i, ok := f.find(key); ok {
		f.entries[i].v = v
	} else {
		f.entries = slices.Insert(f.entries, i, factEntry{key, v})
	}
}

// Add inserts a value into the set; at capacity the set degrades by
// absorbing Unknown instead.
func (f *Fact) Add(v Value) {
	key := v.String()
	i, ok := f.find(key)
	if ok {
		return
	}
	if len(f.entries) >= FactCap {
		f.put(unknownKey, Unknown{})
		return
	}
	f.entries = slices.Insert(f.entries, i, factEntry{key, v})
}

// HasUnknown reports whether the set contains Unknown (it saturated or an
// operand was unresolved).
func (f *Fact) HasUnknown() bool {
	_, ok := f.find(unknownKey)
	return ok
}

// Merge unions another fact into this one, under Add's cap; where both
// hold a rendering, other's value wins. A union past FactCap keeps the
// FactCap smallest renderings plus Unknown, so the result is the same
// whichever side merges into which.
func (f *Fact) Merge(other *Fact) {
	if other == nil {
		return
	}
	for _, e := range other.entries {
		f.put(e.key, e.v)
	}
	n := len(f.entries)
	if f.HasUnknown() {
		n--
	}
	if n <= FactCap {
		return
	}
	kept := f.entries[:0]
	for _, e := range f.entries {
		if e.key != unknownKey && len(kept) < FactCap {
			kept = append(kept, e)
		}
	}
	clear(f.entries[len(kept):])
	f.entries = kept
	f.put(unknownKey, Unknown{})
}

// Values returns the values sorted by rendering, for deterministic output.
func (f *Fact) Values() []Value {
	out := make([]Value, len(f.entries))
	for i, e := range f.entries {
		out[i] = e.v
	}
	return out
}

// Strings renders the values, sorted.
func (f *Fact) Strings() []string {
	out := make([]string, len(f.entries))
	for i, e := range f.entries {
		out[i] = e.key
	}
	return out
}

// Empty reports whether the fact holds no values.
func (f *Fact) Empty() bool { return len(f.entries) == 0 }

// Size returns the number of distinct values — the cheap change indicator
// for fixpoint loops.
func (f *Fact) Size() int { return len(f.entries) }

// Singleton returns the single value when the set has exactly one element.
func (f *Fact) Singleton() (Value, bool) {
	if len(f.entries) != 1 {
		return nil, false
	}
	return f.entries[0].v, true
}
