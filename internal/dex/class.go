package dex

import "fmt"

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

// File is a dex file: an ordered set of class definitions.
type File struct {
	classes []*Class
	byName  map[string]*Class
}

// NewFile returns an empty dex file.
func NewFile() *File {
	return &File{byName: make(map[string]*Class)}
}

// AddClass appends a class definition. Adding a duplicate class name
// returns an error (real dex files reject duplicates too).
func (f *File) AddClass(c *Class) error {
	if _, dup := f.byName[c.Name]; dup {
		return fmt.Errorf("dex: duplicate class %s", c.Name)
	}
	f.classes = append(f.classes, c)
	f.byName[c.Name] = c
	return nil
}

// Class returns the class definition with the given dotted name, or nil.
func (f *File) Class(name string) *Class { return f.byName[name] }

// Classes returns the class definitions in insertion order. The returned
// slice must not be modified.
func (f *File) Classes() []*Class { return f.classes }

// Method resolves a MethodRef to its definition within this file, or nil.
func (f *File) Method(ref MethodRef) *Method {
	c := f.byName[ref.Class]
	if c == nil {
		return nil
	}
	return c.FindMethod(ref.Name, ref.Params...)
}

// InstructionCount returns the total number of instructions in the file.
func (f *File) InstructionCount() int {
	n := 0
	for _, c := range f.classes {
		n += c.InstructionCount()
	}
	return n
}

// MethodCount returns the total number of method definitions in the file.
func (f *File) MethodCount() int {
	n := 0
	for _, c := range f.classes {
		n += len(c.Methods)
	}
	return n
}

// Merge merges the classes of other into f (the multidex merge step that
// BackDroid performs before disassembling). Duplicate class names are
// rejected.
func (f *File) Merge(other *File) error {
	for _, c := range other.classes {
		if err := f.AddClass(c); err != nil {
			return err
		}
	}
	return nil
}
