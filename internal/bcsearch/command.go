package bcsearch

import (
	"strings"

	"backdroid/internal/dex"
)

// CommandKind enumerates the search command families of Sec. IV that the
// engine sends. Every family has a dedicated postings list in the
// inverted index.
type CommandKind int

// Command kinds.
const (
	CmdInvoke CommandKind = iota + 1
	CmdCtor
	CmdConstClass
	CmdConstString
	CmdFieldAccess
	CmdClassUse
	CmdInvokeNamePrefix
)

// Command is one reified search command. The same Command drives both
// backends: LinearScanner applies Match to every dump line, IndexedSearcher
// applies Match only to the candidate lines its postings lookup returns, so
// hit semantics are defined in exactly one place.
type Command struct {
	Kind CommandKind
	// Arg is the kind-specific operand: the full dexdump method signature
	// (CmdInvoke), the "Lcls;.<init>:" prefix (CmdCtor), the class
	// descriptor (CmdConstClass, CmdClassUse), the string value
	// (CmdConstString), the field signature (CmdFieldAccess) or the
	// ".name:" needle (CmdInvokeNamePrefix).
	Arg string
	// Field selects the access direction for CmdFieldAccess.
	Field FieldAccessKind
}

// InvokeCommand searches for call sites of the exact method signature.
func InvokeCommand(ref dex.MethodRef) Command {
	return Command{Kind: CmdInvoke, Arg: ref.DexSignature()}
}

// CtorCommand searches for invoke-direct sites of any constructor of the
// class.
func CtorCommand(class string) Command {
	return Command{Kind: CmdCtor, Arg: string(dex.T(class)) + ".<init>:"}
}

// ConstClassCommand searches for const-class literals of the class.
func ConstClassCommand(class string) Command {
	return Command{Kind: CmdConstClass, Arg: string(dex.T(class))}
}

// ConstStringCommand searches for const-string literals with the exact
// value.
func ConstStringCommand(value string) Command {
	return Command{Kind: CmdConstString, Arg: value}
}

// FieldAccessCommand searches for accesses of the field signature.
func FieldAccessCommand(ref dex.FieldRef, kind FieldAccessKind) Command {
	return Command{Kind: CmdFieldAccess, Arg: ref.DexSignature(), Field: kind}
}

// ClassUseCommand searches for any reference to the class descriptor.
func ClassUseCommand(class string) Command {
	return Command{Kind: CmdClassUse, Arg: string(dex.T(class))}
}

// InvokeNamePrefixCommand searches for call sites by method name alone,
// regardless of declaring class and descriptor — the ".name:" pattern of
// the two-time ICC search's first pass (Sec. IV-D).
func InvokeNamePrefixCommand(name string) Command {
	return Command{Kind: CmdInvokeNamePrefix, Arg: "." + name + ":"}
}

// Key returns the cache key of the command (paper Sec. IV-F: the command
// string is the cache key).
func (c Command) Key() string {
	switch c.Kind {
	case CmdInvoke:
		return "invoke:" + c.Arg
	case CmdCtor:
		return "ctor:" + c.Arg
	case CmdConstClass:
		return "const-class:" + c.Arg
	case CmdConstString:
		return "const-string:" + c.Arg
	case CmdFieldAccess:
		switch c.Field {
		case FieldReads:
			return "field-read:" + c.Arg
		case FieldWrites:
			return "field-write:" + c.Arg
		}
		return "field:" + c.Arg
	case CmdClassUse:
		return "class-use:" + c.Arg
	case CmdInvokeNamePrefix:
		return "invoke-name-prefix:" + c.Arg
	}
	return "unknown:" + c.Arg
}

// Match reports whether the dump line satisfies the command. These are the
// paper-faithful grep predicates; both backends defer to them, so a
// postings lookup can only narrow the candidate set, never change what a
// hit means.
func (c Command) Match(line string) bool {
	switch c.Kind {
	case CmdInvoke:
		return strings.Contains(line, "invoke-") && strings.HasSuffix(line, ", "+c.Arg)
	case CmdCtor:
		return strings.Contains(line, "invoke-direct") && strings.Contains(line, c.Arg)
	case CmdConstClass:
		return strings.Contains(line, "const-class") && strings.HasSuffix(line, ", "+c.Arg)
	case CmdConstString:
		return strings.Contains(line, "const-string") && strings.Contains(line, "\""+c.Arg+"\"")
	case CmdFieldAccess:
		if !strings.Contains(line, c.Arg) {
			return false
		}
		isGet := strings.Contains(line, "iget") || strings.Contains(line, "sget")
		isPut := strings.Contains(line, "iput") || strings.Contains(line, "sput")
		switch c.Field {
		case FieldReads:
			return isGet
		case FieldWrites:
			return isPut
		default:
			return isGet || isPut
		}
	case CmdClassUse:
		return strings.Contains(line, c.Arg)
	case CmdInvokeNamePrefix:
		return strings.Contains(line, "invoke-") && strings.Contains(line, c.Arg)
	}
	return false
}
