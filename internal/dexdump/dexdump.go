// Package dexdump disassembles a dex file into the plaintext that
// BackDroid's on-the-fly bytecode search greps. The layout mirrors the real
// dexdump output shown in the paper's Fig. 3: per-class headers, per-method
// "name:"/"type:" headers with an "(in Lcls;)" marker, and one
// "|NNNN: mnemonic operands" line per instruction.
package dexdump

import (
	"errors"
	"math"
	"sync"

	"backdroid/internal/dex"
)

// Text is the disassembled dump of one (merged) dex file. It retains the
// mapping from each text line back to the containing method so the search
// engine can perform the paper's "identify method in bytecode text" step.
type Text struct {
	full    string  // every line, each followed by '\n'
	ends    []int32 // end offset in full of each line, its newline excluded
	methods []dex.MethodRef
	runs    []lineRun // runs[i] is the lines of methods[i]; ascending and disjoint
	spans   []ClassSpan
	// plain has bit n%64 of word n/64 set when the renderer knows line n
	// holds no index token (see renderer); build skips those lines. A Text that
	// was not rendered, such as a decoded bundle's, has no table, and
	// build scans every line.
	plain []uint64

	hashOnce sync.Once // guards hash (see DumpHash)
	hash     uint64
}

// lineRun is the contiguous line range [start, end) attributed to one
// method: its "name" line through its last instruction. The lines of a
// class header and of each method's "(in Lcls;)" marker belong to none.
type lineRun struct{ start, end int32 }

// ClassSpan is the contiguous line range one class occupies in the dump.
// Spans tile [0, LineCount()) in class order; they are the unit the
// manifest fingerprints and the delta engine diffs.
type ClassSpan struct {
	Name  string // dotted class name, e.g. "com.lge.app1.Main"
	Start int    // first dump line of the class block
	End   int    // one past the last dump line of the class block
}

// MaxDumpBytes bounds a rendered dump: line ends are int32 offsets into
// its text. A dex well under any input cap can render past it — one long
// pool string referenced by thousands of const-string instructions — so
// Render fails such a dump instead of wrapping its offsets.
const MaxDumpBytes = math.MaxInt32

// ErrDumpTooLarge is the error Render returns for a dump over
// MaxDumpBytes.
var ErrDumpTooLarge = errors.New("dexdump: rendered dump exceeds 2 GiB")

// Disassemble renders the dex file as searchable plaintext. It panics on a
// dump over MaxDumpBytes; untrusted input goes through Render.
func Disassemble(f *dex.File) *Text {
	t, err := Render(f)
	if err != nil {
		panic(err)
	}
	return t
}

// Render renders the dex file as searchable plaintext, or fails with
// ErrDumpTooLarge once the text passes MaxDumpBytes. Over a file whose
// bodies are pending it decodes each of them (see dex.Method.Instructions);
// a cold job renders in the walk that loads the file instead (RenderApp).
func Render(f *dex.File) (*Text, error) { return render(f, MaxDumpBytes) }

// render renders f, giving up as soon as the text passes limit bytes:
// per class its header (see renderer.classHeader), then its direct
// methods, then its virtual ones, each group in declaration order.
func render(f *dex.File, limit int) (*Text, error) {
	r := newRenderer(limit)
classes:
	for _, c := range f.Classes() {
		if r.full() {
			break
		}
		r.classHeader(c)
		for _, direct := range [...]bool{true, false} {
			r.group(direct)
			mi := 0
			for _, m := range c.Methods {
				if r.full() {
					break classes
				}
				if m.IsDirect() != direct {
					continue
				}
				var code []dex.Instruction
				if !m.IsAbstract() {
					code = m.Instructions()
				}
				r.method(r.desc, mi, m, code)
				mi++
			}
		}
		r.endClass()
	}
	return r.finish()
}

// String returns the full dump text.
func (t *Text) String() string { return t.full }

// Line returns dump line i, without its newline. It is a substring of
// the full text, so it costs no copy.
func (t *Text) Line(i int) string {
	start := 0
	if i > 0 {
		start = int(t.ends[i-1]) + 1
	}
	return t.full[start:t.ends[i]]
}

// isPlain reports whether render marked line n as holding no index
// token; always false on a Text without the table.
func (t *Text) isPlain(n int) bool {
	return n>>6 < len(t.plain) && t.plain[n>>6]>>(n&63)&1 != 0
}

// LineCount returns the number of dump lines.
func (t *Text) LineCount() int { return len(t.ends) }

// MethodAt returns the method containing the given dump line, if any:
// a binary search for the first method run that ends past the line.
func (t *Text) MethodAt(line int) (dex.MethodRef, bool) {
	lo, hi := 0, len(t.runs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if int(t.runs[mid].end) <= line {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(t.runs) || line < int(t.runs[lo].start) {
		return dex.MethodRef{}, false
	}
	return t.methods[lo], true
}

// Methods returns every method that appears in the dump, in dump order.
func (t *Text) Methods() []dex.MethodRef { return t.methods }

// ClassSpans returns the per-class line ranges in dump order. The spans
// tile [0, LineCount()). The slice must not be modified.
func (t *Text) ClassSpans() []ClassSpan { return t.spans }
