package constprop

import (
	"strings"

	"backdroid/internal/android"
	"backdroid/internal/dex"
	"backdroid/internal/ir"
)

// modelAPI models the semantics of framework API calls the slices commonly
// contain (paper: "we ... model Android/Java APIs to handle ...
// InvokeExpr"). Unmodeled calls produce an identified Token so the output
// remains an expression rather than silently unknown.
func (a *analysis) modelAPI(inv *ir.InvokeExpr, env *env) *Fact {
	cls := inv.Method.Class
	name := inv.Method.Name

	arg := func(i int) *Fact {
		if i < len(inv.Args) {
			return a.evalValue(inv.Args[i], env)
		}
		return NewFact(Unknown{})
	}
	base := func() *Fact {
		if inv.Base != nil {
			return a.evalValue(inv.Base, env)
		}
		return NewFact(Unknown{})
	}

	switch {
	case cls == "java.lang.String":
		switch name {
		case "concat":
			return concatFacts(base(), arg(0))
		case "toUpperCase":
			return mapStrings(base(), strings.ToUpper)
		case "toLowerCase":
			return mapStrings(base(), strings.ToLower)
		case "trim":
			return mapStrings(base(), strings.TrimSpace)
		case "valueOf":
			v := arg(0)
			out := NewFact()
			for _, val := range v.Values() {
				switch t := val.(type) {
				case Str:
					out.Add(t)
				case Num:
					out.Add(Str{S: t.String()})
				default:
					out.Add(Unknown{})
				}
			}
			return out
		case "intern":
			return base()
		}

	case cls == "java.lang.StringBuilder":
		switch name {
		case "append":
			// Model the builder's content as a synthetic field on its Obj.
			content := builderContent(base())
			appended := concatFacts(content, toStringFact(arg(0)))
			setBuilderContent(base(), appended)
			return base()
		case "toString":
			return builderContent(base())
		}

	case cls == android.IntentClass:
		switch name {
		case "setAction", "setClass", "setClassName", "putExtra":
			return base() // fluent setters return the intent
		}
	}

	// Unmodeled framework call: an identified opaque token.
	return NewFact(Token{Sig: inv.Method.SootSignature() + "()"})
}

// builderField is the pseudo-field that holds a StringBuilder's
// content on its Obj.
var builderField = dex.NewFieldRef("java.lang.StringBuilder", "content", dex.StringT)

func builderContent(base *Fact) *Fact {
	out := NewFact()
	for _, v := range base.Values() {
		if obj, ok := v.(*Obj); ok {
			if f, ok2 := obj.Fields[builderField]; ok2 {
				out.Merge(f)
				continue
			}
			out.Add(Str{S: ""})
		}
	}
	if out.Empty() {
		out.Add(Unknown{})
	}
	return out
}

func setBuilderContent(base *Fact, content *Fact) {
	for _, v := range base.Values() {
		if obj, ok := v.(*Obj); ok {
			obj.Fields[builderField] = content
		}
	}
}

func toStringFact(f *Fact) *Fact {
	out := NewFact()
	for _, v := range f.Values() {
		switch t := v.(type) {
		case Str:
			out.Add(t)
		case Num:
			out.Add(Str{S: t.String()})
		default:
			out.Add(Unknown{})
		}
	}
	return out
}

func mapStrings(f *Fact, fn func(string) string) *Fact {
	out := NewFact()
	for _, v := range f.Values() {
		if s, ok := v.(Str); ok {
			out.Add(Str{S: fn(s.S)})
		} else {
			out.Add(Unknown{})
		}
	}
	return out
}

func concatFacts(x, y *Fact) *Fact {
	out := NewFact()
	for _, xv := range x.Values() {
		for _, yv := range y.Values() {
			xs, xok := xv.(Str)
			ys, yok := yv.(Str)
			if xok && yok {
				out.Add(concat(xs.S, ys.S))
			} else {
				out.Add(Unknown{})
			}
		}
	}
	return out
}
