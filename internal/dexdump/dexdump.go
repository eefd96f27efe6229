// Package dexdump disassembles a dex file into the plaintext that
// BackDroid's on-the-fly bytecode search greps. The layout mirrors the real
// dexdump output shown in the paper's Fig. 3: per-class headers, per-method
// "name:"/"type:" headers with an "(in Lcls;)" marker, and one
// "|NNNN: mnemonic operands" line per instruction.
package dexdump

import (
	"bytes"
	"errors"
	"math"
	"strconv"
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
	// plain has bit n%64 of word n/64 set when render knows line n holds
	// no index token (see render); build skips those lines. A Text that
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

// renderPool holds the reusable dump buffers of Disassemble calls.
var renderPool = sync.Pool{New: func() any { return new([]byte) }}

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
// ErrDumpTooLarge once the text passes MaxDumpBytes.
func Render(f *dex.File) (*Text, error) { return render(f, MaxDumpBytes) }

// render renders f, giving up as soon as the text passes limit bytes.
// Every line is appended once into a pooled buffer; the text is stored
// once, as one string, and each line is a substring of it.
//
// As it ends each line, render marks in t.plain the lines that hold no
// index token, from what it just wrote: the template-only header lines
// ("Class #N", "Access flags", "Interfaces -", the two method-group
// headers, "access" and "insns size"), every method "name" and "type"
// line that cannotPost, and every instruction whose opcode prints no
// string, type, method or field operand (dex.Op.PrintsSymbol). Such a
// line holds no "L...;" descriptor, no quote and no family mnemonic with
// an operand, so addLine would post nothing for it.
func render(f *dex.File, limit int) (*Text, error) {
	// Exact line count: per class 5 header lines, 2 method-group headers
	// and one line per interface; per method 4 header lines, plus the
	// insns-size line and one line per instruction unless abstract.
	lines, methods := 0, 0
	for _, c := range f.Classes() {
		lines += 7 + len(c.Interfaces)
		for _, m := range c.Methods {
			lines += 4
			if !m.IsAbstract() {
				lines += 1 + m.InstructionCount()
			}
		}
		methods += len(c.Methods)
	}
	t := &Text{
		ends:    make([]int32, 0, lines),
		methods: make([]dex.MethodRef, 0, methods),
		runs:    make([]lineRun, 0, methods),
		spans:   make([]ClassSpan, 0, len(f.Classes())),
		plain:   make([]uint64, (lines+63)/64),
	}
	pooled := renderPool.Get().(*[]byte)
	buf := (*pooled)[:0]
	eol := func(methodIdx int, plain bool) {
		if n := len(t.ends); plain {
			t.plain[n>>6] |= 1 << (n & 63)
		}
		t.ends = append(t.ends, int32(len(buf)))
		buf = append(buf, '\n')
		if methodIdx >= 0 {
			t.runs[methodIdx].end = int32(len(t.ends))
		}
	}

	// Every loop gives up once the text passes limit. A few lines may
	// have ended past it by then, but that Text is never returned.
classes:
	for ci, c := range f.Classes() {
		if len(buf) > limit {
			break
		}
		span := ClassSpan{Name: c.Name, Start: len(t.ends)}
		buf = strconv.AppendInt(append(buf, "Class #"...), int64(ci), 10)
		buf = append(buf, "            -"...)
		eol(-1, true)
		buf = dex.AppendT(append(buf, "  Class descriptor  : '"...), c.Name)
		buf = append(buf, '\'')
		eol(-1, false)
		buf = c.Flags.AppendFlags(append(buf, "  Access flags      : "...))
		eol(-1, true)
		buf = append(buf, "  Superclass        : '"...)
		if c.Super != "" {
			buf = dex.AppendT(buf, c.Super)
		}
		buf = append(buf, '\'')
		eol(-1, false)
		buf = append(buf, "  Interfaces        -"...)
		eol(-1, true)
		for ii, iface := range c.Interfaces {
			if len(buf) > limit {
				break classes
			}
			buf = strconv.AppendInt(append(buf, "    #"...), int64(ii), 10)
			buf = dex.AppendT(append(buf, "              : '"...), iface)
			buf = append(buf, '\'')
			eol(-1, false)
		}

		for _, direct := range [...]bool{true, false} {
			if direct {
				buf = append(buf, "  Direct methods    -"...)
			} else {
				buf = append(buf, "  Virtual methods   -"...)
			}
			eol(-1, true)
			mi := 0
			for _, m := range c.Methods {
				if m.IsDirect() != direct {
					continue
				}
				if len(buf) > limit {
					break classes
				}
				midx := len(t.methods)
				t.methods = append(t.methods, m.Ref)
				buf = strconv.AppendInt(append(buf, "    #"...), int64(mi), 10)
				buf = dex.AppendT(append(buf, "              : (in "...), c.Name)
				buf = append(buf, ')')
				eol(-1, false)
				t.runs = append(t.runs, lineRun{start: int32(len(t.ends))})
				mi++
				at := len(buf)
				buf = append(append(buf, "      name          : '"...), m.Ref.Name...)
				buf = append(buf, '\'')
				eol(midx, cannotPost(buf[at:]))
				at = len(buf)
				buf = m.Ref.AppendDescriptor(append(buf, "      type          : '"...))
				buf = append(buf, '\'')
				eol(midx, cannotPost(buf[at:]))
				buf = m.Flags.AppendFlags(append(buf, "      access        : "...))
				eol(midx, true)
				if m.IsAbstract() {
					continue
				}
				code := m.Instructions()
				buf = strconv.AppendInt(append(buf, "      insns size    : "...), int64(len(code)), 10)
				buf = append(buf, " 16-bit code units"...)
				eol(midx, true)
				for pc := range code {
					if len(buf) > limit {
						break classes
					}
					buf = dex.AppendHex4(append(buf, "        |"...), int64(pc))
					buf = code[pc].AppendFormat(append(buf, ": "...))
					eol(midx, !code[pc].Op.PrintsSymbol())
				}
			}
		}
		span.End = len(t.ends)
		t.spans = append(t.spans, span)
	}

	if len(buf) > limit {
		// The oversized buffer is dropped, not pooled.
		return nil, ErrDumpTooLarge
	}
	t.full = string(buf)
	*pooled = buf
	renderPool.Put(pooled)
	return t, nil
}

// cannotPost reports whether a line holds none of ';', '"' and ','.
// Every token addLine posts needs one of them: a class use ends at a
// ';', a literal sits between quotes, and an operand follows a ", ".
// render marks a method's name and type lines plain by it, since the
// name or descriptor they print almost never holds one.
func cannotPost(line []byte) bool { return bytes.IndexAny(line, `;",`) < 0 }

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
