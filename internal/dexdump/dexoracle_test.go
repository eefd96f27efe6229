package dexdump

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"backdroid/internal/dex"
)

// The dex decoder as it read before it moved to a byte slice: a
// bytes.Reader with binary.ReadUvarint. It is kept as the oracle of
// FuzzDecodeDex, which requires dex.Decode to accept and reject exactly
// what this decoder does, with the same error, and to decode what it
// accepts into a file that encodes to the same bytes. The code is the old
// decoder's, with three changes that let it live outside package dex:
// identifiers carry an "oracle" prefix, checkOperands is a function, and
// classes go in through the exported AddClass (on a fresh file the same
// as the unexported addClass). One rule was added since: a register or
// input count past 0xFFFF, which Dalvik stores as a u16, is an error.

// oracleDecode is dex.Decode as it was: the magic check of dex.Open,
// then the old decoder over the rest.
func oracleDecode(data []byte) (*dex.File, error) {
	const magic = "GDEX0001"
	if len(data) < len(magic) || string(data[:len(magic)]) != magic {
		return nil, fmt.Errorf("dex: bad magic")
	}
	f := dex.NewFile()
	if err := oracleDecodeClasses(f, data[len(magic):]); err != nil {
		return nil, err
	}
	return f, nil
}

type oracleDecoder struct {
	r    *bytes.Reader
	pool []string
}

func (d *oracleDecoder) uvarint() (uint64, error) { return binary.ReadUvarint(d.r) }
func (d *oracleDecoder) varint() (int64, error)   { return binary.ReadVarint(d.r) }

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
func (d *oracleDecoder) count(what string, minBytes int) (int, error) {
	n, err := d.uvarint()
	if err != nil {
		return 0, fmt.Errorf("dex: %s: %w", what, err)
	}
	if n > uint64(d.r.Len()/minBytes) {
		return 0, fmt.Errorf("dex: %s claims %d entries, %d bytes remain", what, n, d.r.Len())
	}
	return int(n), nil
}

func (d *oracleDecoder) str() (string, error) {
	i, err := d.uvarint()
	if err != nil {
		return "", err
	}
	if i >= uint64(len(d.pool)) {
		return "", fmt.Errorf("dex: string index %d out of range", i)
	}
	return d.pool[i], nil
}

func (d *oracleDecoder) methodRef() (dex.MethodRef, error) {
	var m dex.MethodRef
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
	if np > 0 {
		m.Params = make([]dex.TypeDesc, np)
	}
	for i := range m.Params {
		p, err := d.str()
		if err != nil {
			return m, err
		}
		m.Params[i] = dex.TypeDesc(p)
	}
	ret, err := d.str()
	if err != nil {
		return m, err
	}
	m.Ret = dex.TypeDesc(ret)
	return m, nil
}

func (d *oracleDecoder) fieldRef() (dex.FieldRef, error) {
	var f dex.FieldRef
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
	f.Type = dex.TypeDesc(t)
	return f, nil
}

func (d *oracleDecoder) instruction() (dex.Instruction, error) {
	var in dex.Instruction
	op, err := d.uvarint()
	if err != nil {
		return in, err
	}
	in.Op = dex.Op(op)
	ints := []*int{&in.A, &in.B, &in.C}
	for _, p := range ints {
		v, err := d.varint()
		if err != nil {
			return in, err
		}
		*p = int(v)
	}
	if in.Lit, err = d.varint(); err != nil {
		return in, err
	}
	if in.Str, err = d.str(); err != nil {
		return in, err
	}
	typ, err := d.str()
	if err != nil {
		return in, err
	}
	in.Type = dex.TypeDesc(typ)
	hasMethod, err := d.flag()
	if err != nil {
		return in, err
	}
	if hasMethod {
		m, err := d.methodRef()
		if err != nil {
			return in, err
		}
		in.Method = &m
	}
	hasField, err := d.flag()
	if err != nil {
		return in, err
	}
	if hasField {
		f, err := d.fieldRef()
		if err != nil {
			return in, err
		}
		in.Field = &f
	}
	na, err := d.count("arg count", minVarintBytes)
	if err != nil {
		return in, err
	}
	if na > 0 {
		in.Args = make([]int, na)
	}
	for i := range in.Args {
		a, err := d.varint()
		if err != nil {
			return in, err
		}
		in.Args[i] = int(a)
	}
	tgt, err := d.varint()
	if err != nil {
		return in, err
	}
	in.Target = int(tgt)
	return in, nil
}

// flag reads a ref-presence byte, which Encode writes as 0 or 1.
func (d *oracleDecoder) flag() (bool, error) {
	b, err := d.r.ReadByte()
	if err != nil {
		return false, err
	}
	if b > 1 {
		return false, fmt.Errorf("dex: ref flag %d", b)
	}
	return b == 1, nil
}

// oracleCheckOperands rejects an instruction whose opcode needs a ref it does
// not carry: an invoke without a method, a field access without a field.
func oracleCheckOperands(in *dex.Instruction) error {
	switch {
	case in.Op.IsInvoke() && in.Method == nil:
		return fmt.Errorf("%s without a method ref", in.Op.Mnemonic())
	case (in.Op == dex.OpIGet || in.Op == dex.OpIPut || in.Op == dex.OpSGet || in.Op == dex.OpSPut) && in.Field == nil:
		return fmt.Errorf("%s without a field ref", in.Op.Mnemonic())
	}
	return nil
}

// oracleMaxU16 bounds a method's register and input counts.
const oracleMaxU16 = 1<<16 - 1

// oracleDecodeClasses parses the pool and class definitions that follow
// the magic into f, which must be empty.
func oracleDecodeClasses(f *dex.File, data []byte) error {
	d := &oracleDecoder{r: bytes.NewReader(data)}
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
		if slen > uint64(d.r.Len()) {
			return fmt.Errorf("dex: pool entry %d claims %d bytes, %d remain", i, slen, d.r.Len())
		}
		buf := make([]byte, slen)
		if _, err := io.ReadFull(d.r, buf); err != nil {
			return fmt.Errorf("dex: pool entry %d: %w", i, err)
		}
		d.pool[i] = string(buf)
	}

	nc, err := d.count("class count", minClassBytes)
	if err != nil {
		return err
	}
	for ci := 0; ci < nc; ci++ {
		c := &dex.Class{}
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
		c.Flags = dex.AccessFlags(flags)
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
			c.Fields = append(c.Fields, &dex.Field{Ref: ref, Flags: dex.AccessFlags(ff)})
		}
		nm, err := d.count("method count", minMethodBytes)
		if err != nil {
			return err
		}
		for i := 0; i < nm; i++ {
			m := &dex.Method{}
			if m.Ref, err = d.methodRef(); err != nil {
				return err
			}
			mf, err := d.uvarint()
			if err != nil {
				return err
			}
			m.Flags = dex.AccessFlags(mf)
			regs, err := d.uvarint()
			if err != nil {
				return err
			}
			if regs > oracleMaxU16 {
				return fmt.Errorf("dex: %s.%s: register count %d exceeds %d", c.Name, m.Ref.Name, regs, oracleMaxU16)
			}
			m.Registers = int(regs)
			ins, err := d.uvarint()
			if err != nil {
				return err
			}
			if ins > oracleMaxU16 {
				return fmt.Errorf("dex: %s.%s: input count %d exceeds %d", c.Name, m.Ref.Name, ins, oracleMaxU16)
			}
			m.Ins = int(ins)
			ncode, err := d.count("instruction count", minInstrBytes)
			if err != nil {
				return err
			}
			m.Code = make([]dex.Instruction, ncode)
			for j := range m.Code {
				if m.Code[j], err = d.instruction(); err != nil {
					return err
				}
				if err := oracleCheckOperands(&m.Code[j]); err != nil {
					return fmt.Errorf("dex: %s.%s instruction %d: %w", c.Name, m.Ref.Name, j, err)
				}
			}
			c.Methods = append(c.Methods, m)
		}
		if err := f.AddClass(c); err != nil {
			return err
		}
	}
	return nil
}
