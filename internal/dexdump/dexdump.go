// Package dexdump disassembles a dex file into the plaintext that
// BackDroid's on-the-fly bytecode search greps. The layout mirrors the real
// dexdump output shown in the paper's Fig. 3: per-class headers, per-method
// "name:"/"type:" headers with an "(in Lcls;)" marker, and one
// "|NNNN: mnemonic operands" line per instruction.
package dexdump

import (
	"slices"
	"strconv"
	"sync"

	"backdroid/internal/dex"
)

// Text is the disassembled dump of one (merged) dex file. It retains the
// mapping from each text line back to the containing method so the search
// engine can perform the paper's "identify method in bytecode text" step.
type Text struct {
	lines        []string // consecutive substrings of full, each followed there by '\n'
	methodOfLine []int    // index into methods, -1 for non-instruction lines
	methods      []dex.MethodRef
	spans        []ClassSpan
	full         string

	hashOnce sync.Once // guards hash (see DumpHash)
	hash     uint64
}

// ClassSpan is the contiguous line range one class occupies in the dump.
// Spans tile [0, LineCount()) in class order; they are the unit the
// manifest fingerprints and the delta engine diffs.
type ClassSpan struct {
	Name  string // dotted class name, e.g. "com.lge.app1.Main"
	Start int    // first dump line of the class block
	End   int    // one past the last dump line of the class block
}

// render is the reusable scratch of one Disassemble call: the dump bytes
// and the end offset of every line (its newline excluded).
type render struct {
	buf  []byte
	ends []int
}

var renderPool = sync.Pool{New: func() any { return new(render) }}

// Disassemble renders the dex file as searchable plaintext. Every line is
// appended once into a pooled buffer; the text is stored once, as one
// string, and each line is a substring of it.
func Disassemble(f *dex.File) *Text {
	// Exact line count: per class 5 header lines, 2 method-group headers
	// and one line per interface; per method 4 header lines, plus the
	// insns-size line and one line per instruction unless abstract.
	lines, methods := 0, 0
	for _, c := range f.Classes() {
		lines += 7 + len(c.Interfaces)
		for _, m := range c.Methods {
			lines += 4
			if !m.IsAbstract() {
				lines += 1 + len(m.Code)
			}
		}
		methods += len(c.Methods)
	}
	t := &Text{
		methodOfLine: make([]int, 0, lines),
		methods:      make([]dex.MethodRef, 0, methods),
		spans:        make([]ClassSpan, 0, len(f.Classes())),
	}
	r := renderPool.Get().(*render)
	buf := r.buf[:0]
	ends := slices.Grow(r.ends[:0], lines)
	eol := func(methodIdx int) {
		ends = append(ends, len(buf))
		buf = append(buf, '\n')
		t.methodOfLine = append(t.methodOfLine, methodIdx)
	}

	for ci, c := range f.Classes() {
		span := ClassSpan{Name: c.Name, Start: len(ends)}
		buf = strconv.AppendInt(append(buf, "Class #"...), int64(ci), 10)
		buf = append(buf, "            -"...)
		eol(-1)
		buf = dex.AppendT(append(buf, "  Class descriptor  : '"...), c.Name)
		buf = append(buf, '\'')
		eol(-1)
		buf = c.Flags.AppendFlags(append(buf, "  Access flags      : "...))
		eol(-1)
		buf = append(buf, "  Superclass        : '"...)
		if c.Super != "" {
			buf = dex.AppendT(buf, c.Super)
		}
		buf = append(buf, '\'')
		eol(-1)
		buf = append(buf, "  Interfaces        -"...)
		eol(-1)
		for ii, iface := range c.Interfaces {
			buf = strconv.AppendInt(append(buf, "    #"...), int64(ii), 10)
			buf = dex.AppendT(append(buf, "              : '"...), iface)
			buf = append(buf, '\'')
			eol(-1)
		}

		for _, direct := range [...]bool{true, false} {
			if direct {
				buf = append(buf, "  Direct methods    -"...)
			} else {
				buf = append(buf, "  Virtual methods   -"...)
			}
			eol(-1)
			mi := 0
			for _, m := range c.Methods {
				if m.IsDirect() != direct {
					continue
				}
				midx := len(t.methods)
				t.methods = append(t.methods, m.Ref)
				buf = strconv.AppendInt(append(buf, "    #"...), int64(mi), 10)
				buf = dex.AppendT(append(buf, "              : (in "...), c.Name)
				buf = append(buf, ')')
				eol(-1)
				mi++
				buf = append(append(buf, "      name          : '"...), m.Ref.Name...)
				buf = append(buf, '\'')
				eol(midx)
				buf = m.Ref.AppendDescriptor(append(buf, "      type          : '"...))
				buf = append(buf, '\'')
				eol(midx)
				buf = m.Flags.AppendFlags(append(buf, "      access        : "...))
				eol(midx)
				if m.IsAbstract() {
					continue
				}
				buf = strconv.AppendInt(append(buf, "      insns size    : "...), int64(len(m.Code)), 10)
				buf = append(buf, " 16-bit code units"...)
				eol(midx)
				for pc := range m.Code {
					buf = dex.AppendHex4(append(buf, "        |"...), int64(pc))
					buf = m.Code[pc].AppendFormat(append(buf, ": "...))
					eol(midx)
				}
			}
		}
		span.End = len(ends)
		t.spans = append(t.spans, span)
	}

	t.full = string(buf)
	t.lines = make([]string, len(ends))
	start := 0
	for i, end := range ends {
		t.lines[i] = t.full[start:end]
		start = end + 1
	}
	r.buf, r.ends = buf, ends
	renderPool.Put(r)
	return t
}

// String returns the full dump text.
func (t *Text) String() string { return t.full }

// Lines returns the dump lines. The slice must not be modified.
func (t *Text) Lines() []string { return t.lines }

// LineCount returns the number of dump lines.
func (t *Text) LineCount() int { return len(t.lines) }

// MethodAt returns the method containing the given dump line, if any.
func (t *Text) MethodAt(line int) (dex.MethodRef, bool) {
	if line < 0 || line >= len(t.methodOfLine) || t.methodOfLine[line] < 0 {
		return dex.MethodRef{}, false
	}
	return t.methods[t.methodOfLine[line]], true
}

// Methods returns every method that appears in the dump, in dump order.
func (t *Text) Methods() []dex.MethodRef { return t.methods }

// ClassSpans returns the per-class line ranges in dump order. The spans
// tile [0, LineCount()). The slice must not be modified.
func (t *Text) ClassSpans() []ClassSpan { return t.spans }
