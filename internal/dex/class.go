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
	Code      []Instruction
}

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
// nil when absent.
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
		n += len(m.Code)
	}
	return n
}

// File is a dex file: an ordered set of class definitions. A file made by
// Open holds its encoded bytes and decodes them once, on the first call to
// any method that reads or adds classes. Concurrent first touches are
// safe: one goroutine decodes and the others wait for it.
type File struct {
	pending atomic.Bool // set by Open until the first accessor decodes raw
	once    sync.Once
	raw     []byte // encoded bytes; dropped once decoded
	err     error  // decode error, set once; the file is then empty
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

// Load decodes the file if it has not been decoded yet and returns the
// decode error, if any. After a failed load the file is empty.
func (f *File) Load() error {
	f.load()
	return f.err
}

// Loaded reports whether the file holds decoded classes: always for a
// file built with NewFile, and for a file made by Open once an accessor
// or Load has decoded it, successfully or not.
func (f *File) Loaded() bool { return !f.pending.Load() }

func (f *File) load() {
	if f.pending.Load() {
		f.once.Do(f.decode)
	}
}

func (f *File) decode() {
	f.byName = make(map[string]*Class)
	if f.err = decodeClasses(f, f.raw[len(dexMagic):]); f.err != nil {
		f.classes = nil
		clear(f.byName)
	}
	f.raw = nil
	f.pending.Store(false)
}

// AddClass appends a class definition. Adding a duplicate class name
// returns an error (real dex files reject duplicates too).
func (f *File) AddClass(c *Class) error {
	f.load()
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
	f.load()
	return f.byName[name]
}

// Classes returns the class definitions in insertion order. The returned
// slice must not be modified.
func (f *File) Classes() []*Class {
	f.load()
	return f.classes
}

// Method resolves a MethodRef to its definition within this file, or nil.
func (f *File) Method(ref MethodRef) *Method {
	c := f.Class(ref.Class)
	if c == nil {
		return nil
	}
	return c.FindMethod(ref.Name, ref.Params...)
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
	f.load()
	for _, c := range other.Classes() {
		if err := f.addClass(c); err != nil {
			return err
		}
	}
	return nil
}
