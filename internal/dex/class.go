package dex

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// AccessFlags is the Dalvik access flag bitmask.
type AccessFlags uint32

// Access flag bits (Dalvik values).
const (
	AccPublic      AccessFlags = 0x0001
	AccPrivate     AccessFlags = 0x0002
	AccProtected   AccessFlags = 0x0004
	AccStatic      AccessFlags = 0x0008
	AccFinal       AccessFlags = 0x0010
	AccInterface   AccessFlags = 0x0200
	AccAbstract    AccessFlags = 0x0400
	AccConstructor AccessFlags = 0x10000
)

var flagNames = []struct {
	bit  AccessFlags
	name string
}{
	{AccPublic, "PUBLIC"},
	{AccPrivate, "PRIVATE"},
	{AccProtected, "PROTECTED"},
	{AccStatic, "STATIC"},
	{AccFinal, "FINAL"},
	{AccInterface, "INTERFACE"},
	{AccAbstract, "ABSTRACT"},
	{AccConstructor, "CONSTRUCTOR"},
}

// Has reports whether all the given bits are set.
func (f AccessFlags) Has(bits AccessFlags) bool { return f&bits == bits }

// String renders the flags the way dexdump does: "0x0001 (PUBLIC)".
func (f AccessFlags) String() string {
	var buf [64]byte
	return string(f.AppendFlags(buf[:0]))
}

// AppendFlags appends the String rendering of the flags to dst.
func (f AccessFlags) AppendFlags(dst []byte) []byte {
	dst = append(AppendHex4(append(dst, "0x"...), int64(f)), " ("...)
	sep := false
	for _, fn := range flagNames {
		if f.Has(fn.bit) {
			if sep {
				dst = append(dst, ' ')
			}
			dst = append(dst, fn.name...)
			sep = true
		}
	}
	return append(dst, ')')
}

// Field is a field definition inside a class.
type Field struct {
	Ref   FieldRef
	Flags AccessFlags
}

// IsStatic reports whether the field is static.
func (f *Field) IsStatic() bool { return f.Flags.Has(AccStatic) }

// Method is a method definition with its bytecode body.
type Method struct {
	Ref       MethodRef
	Flags     AccessFlags
	Registers int // total register count; inputs occupy v0..Ins-1
	Ins       int // number of input registers (this + params)
	// Code is the bytecode body. On a file loaded with LoadTables it
	// stays nil until Instructions decodes it, so a reader that may see
	// such a file calls Instructions; every other load fills it.
	Code []Instruction

	body *pendingBody // set by LoadTables and never changed; nil when Code is the body
}

// pendingBody is the encoded body of a method loaded by LoadTables. The
// load already walked it with every check the eager decode applies, and
// counted its operands on the way, so decoding it later cannot fail and
// sizes its operand chunks without a walk of its own.
type pendingBody struct {
	once    sync.Once
	decoded atomic.Bool // set once Code holds the body
	src     *bodySource // nil once decoded
	start   int         // the body's byte range in src.data
	end     int
	n       int           // instruction count
	ops     operandCounts // the operands the load's walk counted in the body
}

// bodySource is what the pending bodies of one file decode from: the
// encoded bytes after the magic and the string pool.
type bodySource struct {
	data []byte
	pool []string
}

// Instructions returns the bytecode body, decoding a pending one on the
// first call. It is safe for concurrent use.
func (m *Method) Instructions() []Instruction {
	if b := m.body; b != nil && !b.decoded.Load() {
		b.once.Do(func() {
			// The load's operand counts size the chunks, so the few bodies
			// a warm job decodes allocate no spare entries.
			d := &decoder{buf: b.src.data[b.start:b.end], pool: b.src.pool, ops: &operands{left: b.ops}}
			err := d.code(m.Ref.Class, m, b.n, true)
			if err != nil || len(d.buf) != 0 {
				panic(fmt.Sprintf("dex: validated body of %s does not decode: %v", m.Ref, err))
			}
			b.src = nil
			b.decoded.Store(true)
		})
	}
	return m.Code
}

// InstructionCount returns the number of instructions in the body
// without decoding a pending one.
func (m *Method) InstructionCount() int {
	if m.body != nil {
		return m.body.n
	}
	return len(m.Code)
}

// BodyDecoded reports whether the body is decoded: always, except for a
// method of a file loaded with LoadTables whose Instructions nobody has
// asked for yet.
func (m *Method) BodyDecoded() bool { return m.body == nil || m.body.decoded.Load() }

// IsStatic reports whether the method is static.
func (m *Method) IsStatic() bool { return m.Flags.Has(AccStatic) }

// IsPrivate reports whether the method is private.
func (m *Method) IsPrivate() bool { return m.Flags.Has(AccPrivate) }

// IsAbstract reports whether the method has no body.
func (m *Method) IsAbstract() bool { return m.Flags.Has(AccAbstract) }

// IsConstructor reports whether the method is an instance constructor.
func (m *Method) IsConstructor() bool { return m.Ref.IsConstructor() }

// IsDirect reports whether the method uses direct (non-virtual) dispatch:
// static, private or constructor. Direct methods are the paper's "signature
// methods" — a plain signature search finds all of their call sites.
func (m *Method) IsDirect() bool {
	return m.IsStatic() || m.IsPrivate() || m.IsConstructor() || m.Ref.IsStaticInitializer()
}

// Class is a class definition.
type Class struct {
	Name       string // dotted Java class name
	Super      string // dotted; empty only for java.lang.Object
	Interfaces []string
	Flags      AccessFlags
	Fields     []*Field
	Methods    []*Method
}

// IsInterface reports whether the class is an interface.
func (c *Class) IsInterface() bool { return c.Flags.Has(AccInterface) }

// FindMethod returns the method with the given name and parameter list, or
// nil when absent. The return type is not compared: this is Java's
// override rule, which dispatch lookups follow. File.Method resolves a
// whole ref instead.
func (c *Class) FindMethod(name string, params ...TypeDesc) *Method {
	for _, m := range c.Methods {
		if m.Ref.Name != name || len(m.Ref.Params) != len(params) {
			continue
		}
		match := true
		for i, p := range params {
			if m.Ref.Params[i] != p {
				match = false
				break
			}
		}
		if match {
			return m
		}
	}
	return nil
}

// FindField returns the field with the given name, or nil when absent.
func (c *Class) FindField(name string) *Field {
	for _, f := range c.Fields {
		if f.Ref.Name == name {
			return f
		}
	}
	return nil
}

// DirectMethods returns the direct (static/private/constructor) methods.
func (c *Class) DirectMethods() []*Method {
	var out []*Method
	for _, m := range c.Methods {
		if m.IsDirect() {
			out = append(out, m)
		}
	}
	return out
}

// VirtualMethods returns the virtually-dispatched methods.
func (c *Class) VirtualMethods() []*Method {
	var out []*Method
	for _, m := range c.Methods {
		if !m.IsDirect() {
			out = append(out, m)
		}
	}
	return out
}

// InstructionCount returns the total number of instructions in the class.
func (c *Class) InstructionCount() int {
	n := 0
	for _, m := range c.Methods {
		n += m.InstructionCount()
	}
	return n
}

// File is a dex file: an ordered set of class definitions. A file made by
// Open holds its encoded bytes and decodes them once, on the first call to
// any method that reads or adds classes. That first touch decodes every
// body, unless it is LoadTables, which leaves the bodies pending (see
// Method.Instructions). Concurrent first touches are safe: one goroutine
// decodes and the others wait for it.
type File struct {
	pending atomic.Bool // set by Open until the first accessor decodes raw
	once    sync.Once
	filled  sync.Once // Load's decode of the bodies LoadTables left pending
	raw     []byte    // encoded bytes; dropped once decoded
	err     error     // decode error, set once; the file is then empty
	classes []*Class
	byName  map[string]*Class
}

// NewFile returns an empty dex file.
func NewFile() *File {
	return &File{byName: make(map[string]*Class)}
}

// Open checks the magic of an encoded dex file and returns a file that
// decodes data on first touch. data must not be modified afterwards.
func Open(data []byte) (*File, error) {
	if len(data) < len(dexMagic) || string(data[:len(dexMagic)]) != dexMagic {
		return nil, fmt.Errorf("dex: bad magic")
	}
	f := &File{raw: data}
	f.pending.Store(true)
	return f, nil
}

// Load decodes the file, every body included, if it has not been
// decoded yet and returns the decode error, if any. After a failed load
// the file is empty. After a successful one every method's Code is
// filled, also on a file LoadTables loaded first.
func (f *File) Load() error {
	f.load(true)
	if f.err == nil {
		f.filled.Do(func() {
			for _, c := range f.classes {
				for _, m := range c.Methods {
					m.Instructions()
				}
			}
		})
	}
	return f.err
}

// LoadTables is Load for a reader that needs few bodies. On a first
// touch it decodes the pool, the classes, the fields and the method
// headers, and walks every body with every check Load applies, so it
// fails exactly when Load would, with the same error; but it leaves each
// body pending until Method.Instructions asks for it. On a file already
// decoded it only returns the decode error.
func (f *File) LoadTables() error {
	f.load(false)
	return f.err
}

// Loaded reports whether the file holds decoded classes: always for a
// file built with NewFile, and for a file made by Open once an
// accessor, Load or LoadTables has decoded it, successfully or not.
func (f *File) Loaded() bool { return !f.pending.Load() }

// load decodes raw on the first touch; materialize says whether that
// decode fills every body or leaves them pending.
func (f *File) load(materialize bool) {
	if f.pending.Load() {
		f.once.Do(func() { f.decode(materialize) })
	}
}

func (f *File) decode(materialize bool) {
	f.byName = make(map[string]*Class)
	if f.err = decodeClasses(f, f.raw[len(dexMagic):], materialize); f.err != nil {
		f.classes = nil
		clear(f.byName)
	}
	f.raw = nil
	f.pending.Store(false)
}

// AddClass appends a class definition. Adding a duplicate class name
// returns an error (real dex files reject duplicates too).
func (f *File) AddClass(c *Class) error {
	f.load(true)
	return f.addClass(c)
}

func (f *File) addClass(c *Class) error {
	if _, dup := f.byName[c.Name]; dup {
		return fmt.Errorf("dex: duplicate class %s", c.Name)
	}
	f.classes = append(f.classes, c)
	f.byName[c.Name] = c
	return nil
}

// Class returns the class definition with the given dotted name, or nil.
func (f *File) Class(name string) *Class {
	f.load(true)
	return f.byName[name]
}

// Classes returns the class definitions in insertion order. The returned
// slice must not be modified.
func (f *File) Classes() []*Class {
	f.load(true)
	return f.classes
}

// Method resolves a MethodRef to its definition within this file, or nil.
// The whole ref must match, return type included: a class may define
// methods that differ only in their return type.
func (f *File) Method(ref MethodRef) *Method {
	c := f.Class(ref.Class)
	if c == nil {
		return nil
	}
	for _, m := range c.Methods {
		if m.Ref.Equal(ref) {
			return m
		}
	}
	return nil
}

// InstructionCount returns the total number of instructions in the file.
func (f *File) InstructionCount() int {
	n := 0
	for _, c := range f.Classes() {
		n += c.InstructionCount()
	}
	return n
}

// MethodCount returns the total number of method definitions in the file.
func (f *File) MethodCount() int {
	n := 0
	for _, c := range f.Classes() {
		n += len(c.Methods)
	}
	return n
}

// Merge merges the classes of other into f (the multidex merge step that
// BackDroid performs before disassembling). Duplicate class names are
// rejected.
func (f *File) Merge(other *File) error {
	f.load(true)
	for _, c := range other.Classes() {
		if err := f.addClass(c); err != nil {
			return err
		}
	}
	return nil
}
