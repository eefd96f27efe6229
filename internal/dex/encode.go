package dex

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"slices"
	"unsafe"
)

// Binary container format ("GDEX"): a compact dex-like serialization with a
// string pool followed by class definitions. All integers are uvarints; all
// strings are pool indices. The format is self-contained so app containers
// can round-trip dex bytes exactly like real APKs carry classes.dex.

const dexMagic = "GDEX0001"

type encoder struct {
	buf     bytes.Buffer
	pool    []string
	poolIdx map[string]uint64
}

func newEncoder() *encoder {
	return &encoder{poolIdx: make(map[string]uint64)}
}

func (e *encoder) str(s string) uint64 {
	if i, ok := e.poolIdx[s]; ok {
		return i
	}
	i := uint64(len(e.pool))
	e.pool = append(e.pool, s)
	e.poolIdx[s] = i
	return i
}

func (e *encoder) uvarint(v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	e.buf.Write(tmp[:n])
}

func (e *encoder) varint(v int64) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutVarint(tmp[:], v)
	e.buf.Write(tmp[:n])
}

func (e *encoder) methodRef(m *MethodRef) {
	e.uvarint(e.str(m.Class))
	e.uvarint(e.str(m.Name))
	e.uvarint(uint64(len(m.Params)))
	for _, p := range m.Params {
		e.uvarint(e.str(string(p)))
	}
	e.uvarint(e.str(string(m.Ret)))
}

func (e *encoder) fieldRef(f *FieldRef) {
	e.uvarint(e.str(f.Class))
	e.uvarint(e.str(f.Name))
	e.uvarint(e.str(string(f.Type)))
}

func (e *encoder) instruction(in *Instruction) {
	e.uvarint(uint64(in.Op))
	e.varint(int64(in.A))
	e.varint(int64(in.B))
	e.varint(int64(in.C))
	e.varint(in.Lit)
	e.uvarint(e.str(in.Str))
	e.uvarint(e.str(string(in.Type)))
	if in.Method != nil {
		e.buf.WriteByte(1)
		e.methodRef(in.Method)
	} else {
		e.buf.WriteByte(0)
	}
	if in.Field != nil {
		e.buf.WriteByte(1)
		e.fieldRef(in.Field)
	} else {
		e.buf.WriteByte(0)
	}
	e.uvarint(uint64(len(in.Args)))
	for _, a := range in.Args {
		e.varint(int64(a))
	}
	e.varint(int64(in.Target))
}

// Fingerprint hashes the encoded dex files of an app: FNV-64a over the
// file count, then each file's size and bytes. It is the app identity
// every content-addressed store keys on (see dexdump.AppFingerprint and
// apk.App.Fingerprint). 0 is reserved for "unknown" and never returned.
func Fingerprint(encoded [][]byte) uint64 {
	h := fnv.New64a()
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(encoded)))
	h.Write(n[:])
	for _, b := range encoded {
		binary.LittleEndian.PutUint64(n[:], uint64(len(b)))
		h.Write(n[:])
		h.Write(b)
	}
	if fp := h.Sum64(); fp != 0 {
		return fp
	}
	return 1
}

// Encode serializes the dex file to its binary form.
func Encode(f *File) []byte {
	e := newEncoder()
	// Body first so the string pool is complete, then assemble
	// header+pool+body.
	e.uvarint(uint64(len(f.Classes())))
	for _, c := range f.Classes() {
		e.uvarint(e.str(c.Name))
		e.uvarint(e.str(c.Super))
		e.uvarint(uint64(len(c.Interfaces)))
		for _, i := range c.Interfaces {
			e.uvarint(e.str(i))
		}
		e.uvarint(uint64(c.Flags))
		e.uvarint(uint64(len(c.Fields)))
		for _, fl := range c.Fields {
			e.fieldRef(&fl.Ref)
			e.uvarint(uint64(fl.Flags))
		}
		e.uvarint(uint64(len(c.Methods)))
		for _, m := range c.Methods {
			e.methodRef(&m.Ref)
			e.uvarint(uint64(m.Flags))
			e.uvarint(uint64(m.Registers))
			e.uvarint(uint64(m.Ins))
			e.uvarint(uint64(len(m.Code)))
			for i := range m.Code {
				e.instruction(&m.Code[i])
			}
		}
	}

	var out bytes.Buffer
	out.WriteString(dexMagic)
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], uint64(len(e.pool)))
	out.Write(tmp[:n])
	for _, s := range e.pool {
		n := binary.PutUvarint(tmp[:], uint64(len(s)))
		out.Write(tmp[:n])
		out.WriteString(s)
	}
	out.Write(e.buf.Bytes())
	return out.Bytes()
}

// decoder reads an encoded dex file front to back out of one byte slice.
type decoder struct {
	buf     []byte // the bytes not read yet
	pool    []string
	ops     *operands     // where decoded body operands go
	seen    operandCounts // the operands of every instruction walked so far
	scratch []Instruction // the reused body of a scratchBody walk
}

// bodyMode says what decoder.code builds from a body it walks. Every
// mode applies the same checks.
type bodyMode uint8

const (
	// skipBody builds nothing (LoadTables).
	skipBody bodyMode = iota
	// fillBody decodes the body into Method.Code (Load, Instructions).
	fillBody
	// scratchBody decodes the body into decoder.scratch, its operands
	// into reused ones, for a Visitor (LoadVisiting).
	scratchBody
)

// chunkBytes bounds one operand chunk: 7 method refs, 10 field refs, 32
// parameter types or 64 argument registers. Up to 512 bytes, an object
// needs no allocation header, so a chunk fills its size class.
const chunkBytes = 512

// operandCounts counts the operand entries of decoded instructions, by
// kind: method refs, field refs, parameter types and argument registers.
type operandCounts struct{ methods, fields, types, ints int }

// since returns the counts c gained after it stood at before.
func (c operandCounts) since(before operandCounts) operandCounts {
	return operandCounts{c.methods - before.methods, c.fields - before.fields,
		c.types - before.types, c.ints - before.ints}
}

// operands hands out the refs and slices of decoded instructions from
// chunks that many instructions share, so a decode makes one allocation
// per chunk, not one per ref, Params or Args slice. Each hand-out is cut
// with a full slice expression, so an append to it copies instead of
// writing into a neighbour. A chunk holds at most chunkBytes: a report
// that keeps one ref or slice alive pins at most that much of its
// neighbours with it. A slice that does not fit a chunk gets an array of
// its own.
type operands struct {
	methods []MethodRef
	fields  []FieldRef
	types   []TypeDesc
	ints    []int
	// left is what the decode still needs of each kind, and no chunk is
	// larger than that. A lazily decoded body counts it with a walk over
	// itself; the eager decode of a whole file does not know it, so its
	// chunks are all chunkBytes long.
	left operandCounts
	// reuse makes the operands scratch for one body at a time: a kind's
	// hand-outs extend one slice, which reset empties for the next body,
	// so a walk allocates only while its largest body grows them. A
	// hand-out may outlive a growth of its slice, never a reset.
	reuse bool
}

// unsized is operands.left for a decode that does not know its needs.
var unsized = operandCounts{math.MaxInt, math.MaxInt, math.MaxInt, math.MaxInt}

// take cuts n entries off *chunk, first replacing a chunk too short for
// them with a fresh one of at most chunkBytes and at most *left entries;
// *left then drops by n.
func take[T any](chunk *[]T, n int, left *int) []T {
	var zero T
	size := min(chunkBytes/int(unsafe.Sizeof(zero)), *left)
	*left -= n
	if n > len(*chunk) {
		if n >= size {
			return make([]T, n)
		}
		*chunk = make([]T, size)
	}
	s := (*chunk)[:n:n]
	*chunk = (*chunk)[n:]
	return s
}

// extend cuts n entries off the end of *s, growing it when its capacity
// is short; the entries handed out before a growth keep the old array.
func extend[T any](s *[]T, n int) []T {
	l := len(*s)
	*s = slices.Grow(*s, n)[:l+n]
	return (*s)[l : l+n : l+n]
}

// cut hands out n entries of one kind: off *chunk by take, or, for
// reused operands, off the end of *chunk by extend.
func cut[T any](o *operands, chunk *[]T, n int, left *int) []T {
	if o.reuse {
		return extend(chunk, n)
	}
	return take(chunk, n, left)
}

// reset empties reused operands for the next body.
func (o *operands) reset() {
	o.methods, o.fields, o.types, o.ints = o.methods[:0], o.fields[:0], o.types[:0], o.ints[:0]
}

// method stores m in a chunk and returns its address.
func (o *operands) method(m MethodRef) *MethodRef {
	p := &cut(o, &o.methods, 1, &o.left.methods)[0]
	*p = m
	return p
}

// field stores f in a chunk and returns its address.
func (o *operands) field(f FieldRef) *FieldRef {
	p := &cut(o, &o.fields, 1, &o.left.fields)[0]
	*p = f
	return p
}

// typeList returns a Params slice of n entries.
func (o *operands) typeList(n int) []TypeDesc {
	return cut(o, &o.types, n, &o.left.types)
}

// intList returns an Args slice of n entries.
func (o *operands) intList(n int) []int {
	return cut(o, &o.ints, n, &o.left.ints)
}

// errOverflow is binary.ReadUvarint's error for a varint that does not
// fit 64 bits; the decoder reports the same text.
var errOverflow = errors.New("binary: varint overflows a 64-bit integer")

// uvarint reads one varint. Most are a single byte, which this fast path
// reads without binary.Uvarint's loop; the rest go through uvarintSlow.
func (d *decoder) uvarint() (uint64, error) {
	if len(d.buf) > 0 && d.buf[0] < 0x80 {
		v := uint64(d.buf[0])
		d.buf = d.buf[1:]
		return v, nil
	}
	return d.uvarintSlow()
}

// uvarintSlow reads a varint of any length. Its errors are those
// binary.ReadUvarint returns on a reader over the same bytes: io.EOF
// when none is left, io.ErrUnexpectedEOF when the varint is cut short,
// and the overflow error when it runs past 64 bits — including ten
// continuation bytes at the very end, which ReadUvarint reports as an
// overflow, not a short read.
func (d *decoder) uvarintSlow() (uint64, error) {
	v, n := binary.Uvarint(d.buf)
	switch {
	case n > 0:
		d.buf = d.buf[n:]
		return v, nil
	case n < 0 || len(d.buf) >= binary.MaxVarintLen64:
		return 0, errOverflow
	case len(d.buf) == 0:
		return 0, io.EOF
	default:
		return 0, io.ErrUnexpectedEOF
	}
}

// varint reads one zig-zag varint, as binary.ReadVarint does.
func (d *decoder) varint() (int64, error) {
	ux, err := d.uvarint()
	x := int64(ux >> 1)
	if ux&1 != 0 {
		x = ^x
	}
	return x, err
}

// Minimum encoded sizes, in bytes, of the entries a count can claim: every
// varint and flag byte takes at least one byte.
const (
	minVarintBytes = 1     // a pool entry's length, a pool index or a register
	minFieldBytes  = 3 + 1 // field ref + flags
	minMethodBytes = 4 + 4 // method ref (class, name, param count, ret) + flags, registers, ins, code length
	minInstrBytes  = 11    // op, A, B, C, Lit, Str, Type, two ref flags, arg count, target
	minClassBytes  = 6     // name, super, interface/field/method counts, flags
)

// count reads the count of a list whose entries each take at least
// minBytes encoded bytes. A count the unread bytes cannot hold is
// rejected before it sizes an allocation, so a few hostile bytes cannot
// claim terabytes.
func (d *decoder) count(what string, minBytes int) (int, error) {
	n, err := d.uvarint()
	if err != nil {
		return 0, fmt.Errorf("dex: %s: %w", what, err)
	}
	if n > uint64(len(d.buf)/minBytes) {
		return 0, fmt.Errorf("dex: %s claims %d entries, %d bytes remain", what, n, len(d.buf))
	}
	return int(n), nil
}

func (d *decoder) str() (string, error) {
	i, err := d.uvarint()
	if err != nil {
		return "", err
	}
	if i >= uint64(len(d.pool)) {
		return "", fmt.Errorf("dex: string index %d out of range", i)
	}
	return d.pool[i], nil
}

// methodRef reads a method ref, its Params taken from ops. With keep
// false it applies the same checks but allocates nothing: the ref it
// returns has no Params.
func (d *decoder) methodRef(ops *operands, keep bool) (MethodRef, error) {
	var m MethodRef
	var err error
	if m.Class, err = d.str(); err != nil {
		return m, err
	}
	if m.Name, err = d.str(); err != nil {
		return m, err
	}
	np, err := d.count("param count", minVarintBytes)
	if err != nil {
		return m, err
	}
	d.seen.types += np
	if keep && np > 0 {
		m.Params = ops.typeList(np)
	}
	for i := 0; i < np; i++ {
		p, err := d.str()
		if err != nil {
			return m, err
		}
		if keep {
			m.Params[i] = TypeDesc(p)
		}
	}
	ret, err := d.str()
	if err != nil {
		return m, err
	}
	m.Ret = TypeDesc(ret)
	return m, nil
}

func (d *decoder) fieldRef() (FieldRef, error) {
	var f FieldRef
	var err error
	if f.Class, err = d.str(); err != nil {
		return f, err
	}
	if f.Name, err = d.str(); err != nil {
		return f, err
	}
	t, err := d.str()
	if err != nil {
		return f, err
	}
	f.Type = TypeDesc(t)
	return f, nil
}

// instruction decodes one instruction into in and reports which refs it
// carries, taking its refs and args from d.ops and counting them in
// d.seen. With materialize false it applies the same checks but sets only
// in's scalar operands: no refs, no args, nothing allocated.
func (d *decoder) instruction(in *Instruction, materialize bool) (hasMethod, hasField bool, err error) {
	op, err := d.uvarint()
	if err != nil {
		return false, false, err
	}
	in.Op = Op(op)
	if materialize {
		// A reused scratch instruction must not keep an earlier body's refs.
		in.Method, in.Field, in.Args = nil, nil, nil
	}
	a, err := d.varint()
	if err != nil {
		return false, false, err
	}
	b, err := d.varint()
	if err != nil {
		return false, false, err
	}
	c, err := d.varint()
	if err != nil {
		return false, false, err
	}
	in.A, in.B, in.C = int(a), int(b), int(c)
	if in.Lit, err = d.varint(); err != nil {
		return false, false, err
	}
	if in.Str, err = d.str(); err != nil {
		return false, false, err
	}
	typ, err := d.str()
	if err != nil {
		return false, false, err
	}
	in.Type = TypeDesc(typ)
	if hasMethod, err = d.flag(); err != nil {
		return false, false, err
	}
	if hasMethod {
		m, err := d.methodRef(d.ops, materialize)
		if err != nil {
			return false, false, err
		}
		d.seen.methods++
		if materialize {
			in.Method = d.ops.method(m)
		}
	}
	if hasField, err = d.flag(); err != nil {
		return false, false, err
	}
	if hasField {
		f, err := d.fieldRef()
		if err != nil {
			return false, false, err
		}
		d.seen.fields++
		if materialize {
			in.Field = d.ops.field(f)
		}
	}
	na, err := d.count("arg count", minVarintBytes)
	if err != nil {
		return false, false, err
	}
	d.seen.ints += na
	if materialize && na > 0 {
		in.Args = d.ops.intList(na)
	}
	for i := 0; i < na; i++ {
		a, err := d.varint()
		if err != nil {
			return false, false, err
		}
		if materialize {
			in.Args[i] = int(a)
		}
	}
	tgt, err := d.varint()
	if err != nil {
		return false, false, err
	}
	in.Target = int(tgt)
	return hasMethod, hasField, nil
}

// flag reads a ref-presence byte, which Encode writes as 0 or 1.
func (d *decoder) flag() (bool, error) {
	if len(d.buf) == 0 {
		return false, io.EOF
	}
	b := d.buf[0]
	d.buf = d.buf[1:]
	if b > 1 {
		return false, fmt.Errorf("dex: ref flag %d", b)
	}
	return b == 1, nil
}

// checkOperands rejects an instruction whose opcode needs a ref it does
// not carry: an invoke without a method, a field access without a field.
func checkOperands(op Op, hasMethod, hasField bool) error {
	switch {
	case op.IsInvoke() && !hasMethod:
		return fmt.Errorf("%s without a method ref", op.Mnemonic())
	case (op == OpIGet || op == OpIPut || op == OpSGet || op == OpSPut) && !hasField:
		return fmt.Errorf("%s without a field ref", op.Mnemonic())
	}
	return nil
}

// code is the one walker over a method body of n instructions, behind
// every load mode (see bodyMode): fillBody decodes the body into m.Code,
// its operands taken from d.ops; scratchBody decodes it into d.scratch,
// its operands taken from d.ops, which must reuse them; skipBody only
// checks it. It returns the decoded body: m.Code, the scratch, or nil.
func (d *decoder) code(class string, m *Method, n int, mode bodyMode) ([]Instruction, error) {
	var code []Instruction
	switch mode {
	case fillBody:
		m.Code = make([]Instruction, n)
		code = m.Code
	case scratchBody:
		d.ops.reset()
		d.scratch = slices.Grow(d.scratch[:0], n)[:n]
		code = d.scratch
	}
	var skipped Instruction
	for j := 0; j < n; j++ {
		in := &skipped
		if code != nil {
			in = &code[j]
		}
		hasMethod, hasField, err := d.instruction(in, mode != skipBody)
		if err != nil {
			return nil, err
		}
		if err := checkOperands(in.Op, hasMethod, hasField); err != nil {
			return nil, fmt.Errorf("dex: %s.%s instruction %d: %w", class, m.Ref.Name, j, err)
		}
	}
	return code, nil
}

// maxU16 bounds the register and input counts, which Dalvik stores as
// u16.
const maxU16 = 1<<16 - 1

// Decode parses a binary dex file produced by Encode: Open followed by
// Load. Every count is bounded by the bytes left to read, and an invoke or
// field instruction without its ref is an error, so a decoded file always
// disassembles.
func Decode(data []byte) (*File, error) {
	f, err := Open(data)
	if err != nil {
		return nil, err
	}
	if err := f.Load(); err != nil {
		return nil, err
	}
	return f, nil
}

// decodeClasses parses the pool and class definitions that follow the
// magic into f, which must be empty, walking each body in the given mode.
// Unless that is fillBody each body is left pending (see File.LoadTables);
// with scratchBody v is handed every class and decoded body as the walk
// meets them (see File.LoadVisiting).
func decodeClasses(f *File, data []byte, mode bodyMode, v Visitor) error {
	d := &decoder{buf: data}
	np, err := d.count("pool size", minVarintBytes)
	if err != nil {
		return err
	}
	d.pool = make([]string, np)
	for i := range d.pool {
		slen, err := d.uvarint()
		if err != nil {
			return fmt.Errorf("dex: pool entry %d: %w", i, err)
		}
		if slen > uint64(len(d.buf)) {
			return fmt.Errorf("dex: pool entry %d claims %d bytes, %d remain", i, slen, len(d.buf))
		}
		d.pool[i] = string(d.buf[:slen])
		d.buf = d.buf[slen:]
	}
	var src *bodySource
	// Method header Params come from chunks in every mode; a body's
	// operands share them only when the body is filled too.
	hdrOps := &operands{left: unsized}
	switch mode {
	case fillBody:
		d.ops = hdrOps
	case scratchBody:
		d.ops = &operands{reuse: true}
	}
	if mode != fillBody {
		src = &bodySource{data: data, pool: d.pool}
	}

	nc, err := d.count("class count", minClassBytes)
	if err != nil {
		return err
	}
	for ci := 0; ci < nc; ci++ {
		c := &Class{}
		if c.Name, err = d.str(); err != nil {
			return err
		}
		if c.Super, err = d.str(); err != nil {
			return err
		}
		ni, err := d.count("interface count", minVarintBytes)
		if err != nil {
			return err
		}
		for i := 0; i < ni; i++ {
			iface, err := d.str()
			if err != nil {
				return err
			}
			c.Interfaces = append(c.Interfaces, iface)
		}
		flags, err := d.uvarint()
		if err != nil {
			return err
		}
		c.Flags = AccessFlags(flags)
		nf, err := d.count("field count", minFieldBytes)
		if err != nil {
			return err
		}
		for i := 0; i < nf; i++ {
			ref, err := d.fieldRef()
			if err != nil {
				return err
			}
			ff, err := d.uvarint()
			if err != nil {
				return err
			}
			c.Fields = append(c.Fields, &Field{Ref: ref, Flags: AccessFlags(ff)})
		}
		nm, err := d.count("method count", minMethodBytes)
		if err != nil {
			return err
		}
		if nm > 0 {
			c.Methods = make([]*Method, 0, nm)
		}
		if v != nil {
			v.Class(c)
		}
		methods := make([]Method, nm)
		var bodies []pendingBody
		if mode != fillBody {
			bodies = make([]pendingBody, nm)
		}
		for i := range methods {
			m := &methods[i]
			if m.Ref, err = d.methodRef(hdrOps, true); err != nil {
				return err
			}
			mf, err := d.uvarint()
			if err != nil {
				return err
			}
			m.Flags = AccessFlags(mf)
			regs, err := d.uvarint()
			if err != nil {
				return err
			}
			if regs > maxU16 {
				return fmt.Errorf("dex: %s.%s: register count %d exceeds %d", c.Name, m.Ref.Name, regs, maxU16)
			}
			m.Registers = int(regs)
			ins, err := d.uvarint()
			if err != nil {
				return err
			}
			if ins > maxU16 {
				return fmt.Errorf("dex: %s.%s: input count %d exceeds %d", c.Name, m.Ref.Name, ins, maxU16)
			}
			m.Ins = int(ins)
			ncode, err := d.count("instruction count", minInstrBytes)
			if err != nil {
				return err
			}
			start, seen := len(data)-len(d.buf), d.seen
			code, err := d.code(c.Name, m, ncode, mode)
			if err != nil {
				return err
			}
			if mode != fillBody {
				b := &bodies[i]
				b.src, b.start, b.end, b.n = src, start, len(data)-len(d.buf), ncode
				b.ops = d.seen.since(seen)
				m.body = b
			}
			c.Methods = append(c.Methods, m)
			if v != nil {
				v.Method(m, code)
			}
		}
		if err := f.addClass(c); err != nil {
			return err
		}
		if v != nil {
			v.EndClass()
		}
	}
	return nil
}
