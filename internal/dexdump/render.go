package dexdump

import (
	"bytes"
	"sort"
	"strconv"
	"sync"

	"backdroid/internal/apk"
	"backdroid/internal/dex"
)

// renderer appends the lines of one dump, in dump order, into scratch
// that renderPool reuses, and finish copies them into a Text. render
// drives it over a decoded file; as a dex.Visitor it renders a cold app
// in the walk that checks each body (RenderApp).
//
// As it ends each line, it marks in plain the lines that hold no index
// token, from what it just wrote: the template-only header lines
// ("Class #N", "Access flags", "Interfaces -", the two method-group
// headers, "access" and "insns size"), every method "name" and "type"
// line that cannotPost, and every instruction whose opcode prints no
// string, type, method or field operand (dex.Op.PrintsSymbol). Such a
// line holds no "L...;" descriptor, no quote and no family mnemonic with
// an operand, so addLine would post nothing for it.
type renderer struct {
	buf     []byte
	ends    []int32
	plain   []uint64 // as Text.plain
	methods []dex.MethodRef
	runs    []lineRun
	spans   []ClassSpan
	limit   int  // the bytes the text may hold
	over    bool // the text passed limit; nothing more is written

	desc []byte // the descriptor of the class whose header was written last

	// The class a walk is in (see Class, Method and EndClass).
	span      ClassSpan
	direct    int       // its direct methods rendered so far
	virtual   int       // its virtual methods rendered so far
	virtualAt int       // the line of its "Virtual methods" header; -1 before it
	held      *renderer // its virtual methods, from that header on, while direct ones follow them
}

// renderPool holds the scratch of finished renderers.
var renderPool = sync.Pool{New: func() any { return new(renderer) }}

// newRenderer returns an empty renderer whose text may hold limit bytes.
func newRenderer(limit int) *renderer {
	r := renderPool.Get().(*renderer)
	r.limit, r.virtualAt = limit, -1
	return r
}

// release empties r and returns its scratch to the pool. The refs and
// names it holds are cleared, so an idle renderer pins no app.
func (r *renderer) release() {
	clear(r.methods)
	clear(r.spans)
	*r = renderer{buf: r.buf[:0], ends: r.ends[:0], plain: r.plain[:0],
		methods: r.methods[:0], runs: r.runs[:0], spans: r.spans[:0], desc: r.desc[:0]}
	renderPool.Put(r)
}

// finish copies the dump into a Text, each table at its exact size, and
// releases r; or fails with ErrDumpTooLarge, dropping an oversized
// scratch rather than pooling it.
func (r *renderer) finish() (*Text, error) {
	if r.over || len(r.buf) > r.limit {
		return nil, ErrDumpTooLarge
	}
	t := &Text{
		full:    string(r.buf),
		ends:    exact(r.ends),
		methods: exact(r.methods),
		runs:    exact(r.runs),
		spans:   exact(r.spans),
		plain:   exact(r.plain),
	}
	r.release()
	return t, nil
}

// exact returns a copy of s with no spare capacity.
func exact[T any](s []T) []T { return append(make([]T, 0, len(s)), s...) }

// full reports whether the text has passed limit, from then on for good.
// Every writer checks it before each line it may repeat, so the scratch
// never grows much past limit.
func (r *renderer) full() bool {
	if len(r.buf) > r.limit {
		r.over = true
	}
	return r.over
}

// eol ends the line written since the previous one, marking it plain or
// not; a line of a method run (run >= 0) extends that run.
func (r *renderer) eol(run int, plain bool) {
	n := len(r.ends)
	if n&63 == 0 {
		r.plain = append(r.plain, 0)
	}
	if plain {
		r.plain[n>>6] |= 1 << (n & 63)
	}
	r.ends = append(r.ends, int32(len(r.buf)))
	r.buf = append(r.buf, '\n')
	if run >= 0 {
		r.runs[run].end = int32(len(r.ends))
	}
}

// classHeader writes the header lines of c, the next class of the dump:
// 5 lines, then one per interface.
func (r *renderer) classHeader(c *dex.Class) {
	if r.full() {
		return
	}
	r.span = ClassSpan{Name: c.Name, Start: len(r.ends)}
	r.buf = strconv.AppendInt(append(r.buf, "Class #"...), int64(len(r.spans)), 10)
	r.buf = append(r.buf, "            -"...)
	r.eol(-1, true)
	r.desc = dex.AppendT(r.desc[:0], c.Name)
	r.buf = append(append(r.buf, "  Class descriptor  : '"...), r.desc...)
	r.buf = append(r.buf, '\'')
	r.eol(-1, false)
	r.buf = c.Flags.AppendFlags(append(r.buf, "  Access flags      : "...))
	r.eol(-1, true)
	r.buf = append(r.buf, "  Superclass        : '"...)
	if c.Super != "" {
		r.buf = dex.AppendT(r.buf, c.Super)
	}
	r.buf = append(r.buf, '\'')
	r.eol(-1, false)
	r.buf = append(r.buf, "  Interfaces        -"...)
	r.eol(-1, true)
	for ii, iface := range c.Interfaces {
		if r.full() {
			return
		}
		r.buf = strconv.AppendInt(append(r.buf, "    #"...), int64(ii), 10)
		r.buf = dex.AppendT(append(r.buf, "              : '"...), iface)
		r.buf = append(r.buf, '\'')
		r.eol(-1, false)
	}
}

// group writes the header line of a class's direct or virtual methods.
func (r *renderer) group(direct bool) {
	if r.full() {
		return
	}
	if direct {
		r.buf = append(r.buf, "  Direct methods    -"...)
	} else {
		r.buf = append(r.buf, "  Virtual methods   -"...)
	}
	r.eol(-1, true)
}

// method writes m, the mi-th method of its group in the class of
// descriptor desc: its "(in Lcls;)" marker line, then its run: the name,
// type and access lines and, unless m is abstract, the size line and one
// line per instruction of code.
func (r *renderer) method(desc []byte, mi int, m *dex.Method, code []dex.Instruction) {
	if r.full() {
		return
	}
	run := len(r.methods)
	r.methods = append(r.methods, m.Ref)
	r.buf = strconv.AppendInt(append(r.buf, "    #"...), int64(mi), 10)
	r.buf = append(append(r.buf, "              : (in "...), desc...)
	r.buf = append(r.buf, ')')
	r.eol(-1, false)
	r.runs = append(r.runs, lineRun{start: int32(len(r.ends))})
	at := len(r.buf)
	r.buf = append(append(r.buf, "      name          : '"...), m.Ref.Name...)
	r.buf = append(r.buf, '\'')
	r.eol(run, cannotPost(r.buf[at:]))
	at = len(r.buf)
	r.buf = m.Ref.AppendDescriptor(append(r.buf, "      type          : '"...))
	r.buf = append(r.buf, '\'')
	r.eol(run, cannotPost(r.buf[at:]))
	r.buf = m.Flags.AppendFlags(append(r.buf, "      access        : "...))
	r.eol(run, true)
	if m.IsAbstract() {
		return
	}
	r.buf = strconv.AppendInt(append(r.buf, "      insns size    : "...), int64(len(code)), 10)
	r.buf = append(r.buf, " 16-bit code units"...)
	r.eol(run, true)
	for pc := range code {
		if r.full() {
			return
		}
		r.buf = dex.AppendHex4(append(r.buf, "        |"...), int64(pc))
		r.buf = code[pc].AppendFormat(append(r.buf, ": "...))
		r.eol(run, !code[pc].Op.PrintsSymbol())
	}
}

// endClass closes the span of the class whose lines were written last.
func (r *renderer) endClass() {
	if r.full() {
		return
	}
	r.span.End = len(r.ends)
	r.spans = append(r.spans, r.span)
}

// cannotPost reports whether a line holds none of ';', '"' and ','.
// Every token addLine posts needs one of them: a class use ends at a
// ';', a literal sits between quotes, and an operand follows a ", ".
// The renderer marks a method's name and type lines plain by it, since
// the name or descriptor they print almost never holds one.
func cannotPost(line []byte) bool { return bytes.IndexAny(line, `;",`) < 0 }

// Class starts the next class of a walk (dex.Visitor): its header and
// the direct methods' header.
func (r *renderer) Class(c *dex.Class) {
	r.direct, r.virtual, r.virtualAt = 0, 0, -1
	r.classHeader(c)
	r.group(true)
}

// Method renders the next method of a walk's class (dex.Visitor). The dump
// prints a class's direct methods before its virtual ones, in declaration
// order within each group, but the walk meets them in declaration order.
// The first virtual method opens the virtual group after the direct
// methods so far; a direct method met after it moves that group aside
// (hold), and the group grows there until EndClass puts it back after
// the last direct method.
func (r *renderer) Method(m *dex.Method, code []dex.Instruction) {
	if r.full() {
		return
	}
	switch {
	case m.IsDirect():
		if r.virtualAt >= 0 && r.held == nil {
			r.held = &renderer{limit: r.limit, virtualAt: -1}
			r.moveLines(r.held, r.virtualAt)
		}
		r.method(r.desc, r.direct, m, code)
		r.direct++
	case r.held != nil:
		r.held.method(r.desc, r.virtual, m, code)
		r.virtual++
		r.over = r.held.full()
	default:
		if r.virtualAt < 0 {
			r.virtualAt = len(r.ends)
			r.group(false)
		}
		r.method(r.desc, r.virtual, m, code)
		r.virtual++
	}
}

// EndClass ends a walk's class (dex.Visitor): a class without virtual
// methods still gets their header, and a held virtual group goes back
// after the direct methods.
func (r *renderer) EndClass() {
	if r.full() {
		return
	}
	if r.held != nil {
		r.held.moveLines(r, 0)
		r.held = nil
	} else if r.virtualAt < 0 {
		r.group(false)
	}
	r.endClass()
}

// moveLines moves r's lines from line from on to the end of dst, with
// their plain marks and the method runs that start among them.
func (r *renderer) moveLines(dst *renderer, from int) {
	start := 0
	if from > 0 {
		start = int(r.ends[from-1]) + 1
	}
	shift := int32(len(dst.buf) - start)
	dst.buf = append(dst.buf, r.buf[start:]...)
	lineShift := int32(len(dst.ends) - from)
	for n := from; n < len(r.ends); n++ {
		d := len(dst.ends)
		if d&63 == 0 {
			dst.plain = append(dst.plain, 0)
		}
		dst.plain[d>>6] |= (r.plain[n>>6] >> (n & 63) & 1) << (d & 63)
		dst.ends = append(dst.ends, r.ends[n]+shift)
	}
	k := sort.Search(len(r.runs), func(i int) bool { return int(r.runs[i].start) >= from })
	for i := k; i < len(r.runs); i++ {
		dst.methods = append(dst.methods, r.methods[i])
		dst.runs = append(dst.runs, lineRun{r.runs[i].start + lineShift, r.runs[i].end + lineShift})
	}
	r.buf, r.ends = r.buf[:start], r.ends[:from]
	r.plain = r.plain[:(from+63)/64]
	if from&63 != 0 {
		r.plain[from>>6] &= 1<<(from&63) - 1
	}
	r.methods, r.runs = r.methods[:k], r.runs[:k]
}

// RenderApp merges the app's dex files and renders the merged file, as
// MergedTables followed by Render would, but in one walk per body: each
// dex file's first touch loads it with dex.File.LoadVisiting, which
// checks each body, hands it to the renderer decoded into reused scratch
// and leaves it pending. A cold job thus never holds the app's decoded
// bodies, and decodes through Method.Instructions only those it
// translates. A dex file that something else loaded first falls back to
// Render over the merged file. The errors are those of MergedTables and
// then Render: a decode error wins over a merge error, and a merge error
// over ErrDumpTooLarge.
func RenderApp(app *apk.App) (*dex.File, *Text, error) { return renderApp(app, MaxDumpBytes) }

// renderApp is RenderApp with a text of at most limit bytes.
func renderApp(app *apk.App, limit int) (*dex.File, *Text, error) {
	r := newRenderer(limit)
	merged, visited, err := app.MergedVisiting(r)
	if err != nil || !visited {
		if !r.over {
			r.release()
		}
		if err != nil {
			return nil, nil, err
		}
		t, err := render(merged, limit)
		if err != nil {
			return nil, nil, err
		}
		return merged, t, nil
	}
	t, err := r.finish()
	if err != nil {
		return nil, nil, err
	}
	return merged, t, nil
}
