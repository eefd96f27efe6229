// Package dexdump disassembles a dex file into the plaintext that
// BackDroid's on-the-fly bytecode search greps. The layout mirrors the real
// dexdump output shown in the paper's Fig. 3: per-class headers, per-method
// "name:"/"type:" headers with an "(in Lcls;)" marker, and one
// "|NNNN: mnemonic operands" line per instruction.
package dexdump

import (
	"fmt"
	"strings"
	"sync"

	"backdroid/internal/dex"
)

// Text is the disassembled dump of one (merged) dex file. It retains the
// mapping from each text line back to the containing method so the search
// engine can perform the paper's "identify method in bytecode text" step.
type Text struct {
	lines        []string
	methodOfLine []int // index into methods, -1 for non-instruction lines
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

// Disassemble renders the dex file as searchable plaintext.
func Disassemble(f *dex.File) *Text {
	t := &Text{}
	var b strings.Builder

	emit := func(methodIdx int, format string, args ...any) {
		line := fmt.Sprintf(format, args...)
		t.lines = append(t.lines, line)
		t.methodOfLine = append(t.methodOfLine, methodIdx)
		b.WriteString(line)
		b.WriteByte('\n')
	}

	for ci, c := range f.Classes() {
		span := ClassSpan{Name: c.Name, Start: len(t.lines)}
		emit(-1, "Class #%d            -", ci)
		emit(-1, "  Class descriptor  : '%s'", dex.T(c.Name))
		emit(-1, "  Access flags      : %s", c.Flags)
		super := ""
		if c.Super != "" {
			super = string(dex.T(c.Super))
		}
		emit(-1, "  Superclass        : '%s'", super)
		emit(-1, "  Interfaces        -")
		for ii, iface := range c.Interfaces {
			emit(-1, "    #%d              : '%s'", ii, dex.T(iface))
		}

		emitMethods := func(header string, methods []*dex.Method) {
			emit(-1, "  %s   -", header)
			for mi, m := range methods {
				midx := len(t.methods)
				t.methods = append(t.methods, m.Ref)
				emit(-1, "    #%d              : (in %s)", mi, dex.T(c.Name))
				emit(midx, "      name          : '%s'", m.Ref.Name)
				emit(midx, "      type          : '%s'", m.Ref.Descriptor())
				emit(midx, "      access        : %s", m.Flags)
				if m.IsAbstract() {
					continue
				}
				emit(midx, "      insns size    : %d 16-bit code units", len(m.Code))
				for pc := range m.Code {
					emit(midx, "        |%04x: %s", pc, m.Code[pc].Format())
				}
			}
		}
		emitMethods("Direct methods ", c.DirectMethods())
		emitMethods("Virtual methods", c.VirtualMethods())
		span.End = len(t.lines)
		t.spans = append(t.spans, span)
	}

	t.full = b.String()
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
