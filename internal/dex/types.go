// Package dex models a Dalvik-like register-based bytecode: type
// descriptors, method and field references, instructions, classes and a dex
// file container with binary encode/decode support.
//
// The model intentionally mirrors the subset of real DEX semantics that the
// BackDroid paper's analyses rely on: the five invoke kinds, instance and
// static field accesses, const-string/const-class literals, object and array
// allocation, branches and returns. Signatures are renderable both in Soot's
// Jimple format (`<com.foo.Bar: void start()>`) and in dexdump's format
// (`Lcom/foo/Bar;.start:()V`), because BackDroid constantly translates
// between the program-analysis space and the bytecode-search space.
package dex

import "strings"

// TypeDesc is a JVM-style type descriptor: "V", "I", "Z", "J",
// "Ljava/lang/String;", "[I", and so on.
type TypeDesc string

// Primitive and common descriptors.
const (
	Void    TypeDesc = "V"
	Int     TypeDesc = "I"
	Bool    TypeDesc = "Z"
	Long    TypeDesc = "J"
	Float   TypeDesc = "F"
	Double  TypeDesc = "D"
	Byte    TypeDesc = "B"
	Short   TypeDesc = "S"
	Char    TypeDesc = "C"
	StringT TypeDesc = "Ljava/lang/String;"
	ObjectT TypeDesc = "Ljava/lang/Object;"
)

// T converts a dotted Java class name into an object type descriptor.
// T("java.lang.String") == "Ljava/lang/String;".
func T(className string) TypeDesc {
	var buf [64]byte
	return TypeDesc(AppendT(buf[:0], className))
}

// AppendT appends T(className) to dst, mapping '.' to '/' byte by byte.
func AppendT(dst []byte, className string) []byte {
	dst = append(dst, 'L')
	for i := 0; i < len(className); i++ {
		c := className[i]
		if c == '.' {
			c = '/'
		}
		dst = append(dst, c)
	}
	return append(dst, ';')
}

// Array returns the array descriptor of the element type.
func Array(elem TypeDesc) TypeDesc { return "[" + elem }

// IsObject reports whether the descriptor denotes a class type.
func (t TypeDesc) IsObject() bool { return strings.HasPrefix(string(t), "L") }

// IsArray reports whether the descriptor denotes an array type.
func (t TypeDesc) IsArray() bool { return strings.HasPrefix(string(t), "[") }

// IsRef reports whether the descriptor denotes a reference type
// (class or array).
func (t TypeDesc) IsRef() bool { return t.IsObject() || t.IsArray() }

// IsPrimitive reports whether the descriptor denotes a primitive type.
func (t TypeDesc) IsPrimitive() bool { return !t.IsRef() && t != Void }

// Elem returns the element type of an array descriptor, or t itself when t
// is not an array.
func (t TypeDesc) Elem() TypeDesc {
	if t.IsArray() {
		return t[1:]
	}
	return t
}

// ClassName returns the dotted Java class name for an object descriptor.
// For non-object descriptors it returns the empty string.
func (t TypeDesc) ClassName() string {
	if !t.IsObject() {
		return ""
	}
	inner := strings.TrimSuffix(strings.TrimPrefix(string(t), "L"), ";")
	return strings.ReplaceAll(inner, "/", ".")
}

// Human renders the descriptor in Java source form, as used by Soot
// signatures: "V" -> "void", "Ljava/lang/String;" -> "java.lang.String",
// "[I" -> "int[]".
func (t TypeDesc) Human() string {
	var buf [64]byte
	return string(t.AppendHuman(buf[:0]))
}

// AppendHuman appends the Human rendering to dst.
func (t TypeDesc) AppendHuman(dst []byte) []byte {
	dims := 0
	for dims < len(t) && t[dims] == '[' {
		dims++
	}
	elem := t[dims:]
	switch elem {
	case Void:
		dst = append(dst, "void"...)
	case Int:
		dst = append(dst, "int"...)
	case Bool:
		dst = append(dst, "boolean"...)
	case Long:
		dst = append(dst, "long"...)
	case Float:
		dst = append(dst, "float"...)
	case Double:
		dst = append(dst, "double"...)
	case Byte:
		dst = append(dst, "byte"...)
	case Short:
		dst = append(dst, "short"...)
	case Char:
		dst = append(dst, "char"...)
	default:
		if !elem.IsObject() {
			dst = append(dst, elem...)
			break
		}
		// The dotted class name.
		inner := strings.TrimSuffix(string(elem[1:]), ";")
		for i := 0; i < len(inner); i++ {
			c := inner[i]
			if c == '/' {
				c = '.'
			}
			dst = append(dst, c)
		}
	}
	for ; dims > 0; dims-- {
		dst = append(dst, "[]"...)
	}
	return dst
}

// MethodRef identifies a method by declaring class, name and full
// descriptor. It is the unit of identity used across the search and
// analysis spaces.
type MethodRef struct {
	Class  string // dotted Java class name
	Name   string
	Params []TypeDesc
	Ret    TypeDesc
}

// NewMethodRef builds a MethodRef.
func NewMethodRef(class, name string, ret TypeDesc, params ...TypeDesc) MethodRef {
	return MethodRef{Class: class, Name: name, Params: params, Ret: ret}
}

// Descriptor renders the parameter/return descriptor: "(Ljava/lang/String;I)V".
func (m MethodRef) Descriptor() string {
	var buf [64]byte
	return string(m.AppendDescriptor(buf[:0]))
}

// AppendDescriptor appends the Descriptor rendering to dst.
func (m *MethodRef) AppendDescriptor(dst []byte) []byte {
	dst = append(dst, '(')
	for _, p := range m.Params {
		dst = append(dst, p...)
	}
	return append(append(dst, ')'), m.Ret...)
}

// DexSignature renders the dexdump-format signature used by bytecode search:
// "Lcom/foo/Bar;.start:()V".
func (m MethodRef) DexSignature() string {
	var buf [128]byte
	return string(m.AppendDexSignature(buf[:0]))
}

// AppendDexSignature appends the DexSignature rendering to dst.
func (m *MethodRef) AppendDexSignature(dst []byte) []byte {
	dst = append(AppendT(dst, m.Class), '.')
	dst = append(append(dst, m.Name...), ':')
	return m.AppendDescriptor(dst)
}

// SootSignature renders the Soot-format full signature used in the program
// analysis space: "<com.foo.Bar: void start(java.lang.String)>".
func (m MethodRef) SootSignature() string {
	var buf [128]byte
	return string(m.AppendSootSignature(buf[:0]))
}

// AppendSootSignature appends the SootSignature rendering to dst.
func (m *MethodRef) AppendSootSignature(dst []byte) []byte {
	dst = append(append(append(dst, '<'), m.Class...), ": "...)
	return append(m.appendSubSignature(dst), '>')
}

// SubSignature renders the Soot sub-signature (no declaring class):
// "void start(java.lang.String)". Methods with equal sub-signatures in
// related classes override one another.
func (m MethodRef) SubSignature() string {
	var buf [96]byte
	return string(m.appendSubSignature(buf[:0]))
}

func (m *MethodRef) appendSubSignature(dst []byte) []byte {
	dst = append(m.Ret.AppendHuman(dst), ' ')
	dst = append(append(dst, m.Name...), '(')
	for i, p := range m.Params {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = p.AppendHuman(dst)
	}
	return append(dst, ')')
}

// String returns the Soot signature.
func (m MethodRef) String() string { return m.SootSignature() }

// Equal reports whether two references name the same method: the same
// class, name, return type and parameter list. It compares the fields
// in place, so unlike comparing signatures it allocates nothing.
func (m MethodRef) Equal(o MethodRef) bool {
	if m.Class != o.Class || m.Name != o.Name || m.Ret != o.Ret || len(m.Params) != len(o.Params) {
		return false
	}
	for i, p := range m.Params {
		if p != o.Params[i] {
			return false
		}
	}
	return true
}

// IsConstructor reports whether the reference names an instance constructor.
func (m MethodRef) IsConstructor() bool { return m.Name == "<init>" }

// IsStaticInitializer reports whether the reference names a class static
// initializer.
func (m MethodRef) IsStaticInitializer() bool { return m.Name == "<clinit>" }

// WithClass returns a copy of the reference re-targeted at another declaring
// class. Used to construct child/parent-class search signatures.
func (m MethodRef) WithClass(class string) MethodRef {
	cp := m
	cp.Class = class
	return cp
}

// FieldRef identifies a field by declaring class, name and type.
type FieldRef struct {
	Class string // dotted Java class name
	Name  string
	Type  TypeDesc
}

// NewFieldRef builds a FieldRef.
func NewFieldRef(class, name string, typ TypeDesc) FieldRef {
	return FieldRef{Class: class, Name: name, Type: typ}
}

// DexSignature renders the dexdump-format field signature:
// "Lcom/foo/Bar;.port:I".
func (f FieldRef) DexSignature() string {
	var buf [128]byte
	return string(f.AppendDexSignature(buf[:0]))
}

// AppendDexSignature appends the DexSignature rendering to dst.
func (f *FieldRef) AppendDexSignature(dst []byte) []byte {
	dst = append(AppendT(dst, f.Class), '.')
	dst = append(append(dst, f.Name...), ':')
	return append(dst, f.Type...)
}

// SootSignature renders the Soot-format field signature:
// "<com.foo.Bar: int port>".
func (f FieldRef) SootSignature() string {
	return "<" + f.Class + ": " + f.Type.Human() + " " + f.Name + ">"
}

// String returns the Soot signature.
func (f FieldRef) String() string { return f.SootSignature() }
