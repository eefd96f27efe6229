package bcsearch

import (
	"fmt"
	"testing"

	"backdroid/internal/appgen"
	"backdroid/internal/dex"
	"backdroid/internal/dexdump"
	"backdroid/internal/simtime"
)

// parityQueries derives, from a dex file, one search command of every kind
// for every plausible operand: all invoke targets and defined methods, all
// classes (defined and referenced), all string literals and all fields.
// Near-miss variants (prefixes, wrong descriptors, unknown classes) probe
// that the index does not over-match either.
func parityQueries(f *dex.File) []Command {
	var cmds []Command
	seen := make(map[string]bool)
	add := func(c Command) {
		k := c.Key()
		if seen[k] {
			return
		}
		seen[k] = true
		cmds = append(cmds, c)
	}

	addMethod := func(ref dex.MethodRef) {
		add(InvokeCommand(ref))
		add(InvokeNamePrefixCommand(ref.Name))
		// Near misses: same name, impossible descriptor; unknown name.
		add(InvokeCommand(dex.NewMethodRef(ref.Class, ref.Name, dex.Void, dex.Long, dex.Long, dex.Long)))
		add(InvokeNamePrefixCommand(ref.Name + "Nope"))
	}
	addClass := func(name string) {
		if name == "" {
			return
		}
		add(CtorCommand(name))
		add(ConstClassCommand(name))
		add(ClassUseCommand(name))
		// Near miss: a package-sibling class that does not exist.
		add(ClassUseCommand(name + "Missing"))
		add(ConstClassCommand(name + "Missing"))
	}

	for _, c := range f.Classes() {
		addClass(c.Name)
		addClass(c.Super)
		for _, iface := range c.Interfaces {
			addClass(iface)
		}
		for _, fld := range c.Fields {
			for _, kind := range []FieldAccessKind{FieldReads, FieldWrites, FieldAny} {
				add(FieldAccessCommand(fld.Ref, kind))
			}
		}
		for _, m := range c.Methods {
			addMethod(m.Ref)
			for i := range m.Code {
				in := &m.Code[i]
				if in.Method != nil {
					addMethod(*in.Method)
					addClass(in.Method.Class)
				}
				if in.Field != nil {
					for _, kind := range []FieldAccessKind{FieldReads, FieldWrites, FieldAny} {
						add(FieldAccessCommand(*in.Field, kind))
					}
				}
				if in.Op == dex.OpConstString {
					add(ConstStringCommand(in.Str))
					// Near miss: prefix of a real literal must not match.
					if len(in.Str) > 1 {
						add(ConstStringCommand(in.Str[:len(in.Str)-1]))
					}
				}
				if in.Type != "" && in.Type.IsRef() {
					addClass(in.Type.Human())
				}
			}
		}
	}
	add(ConstStringCommand("no-such-string-anywhere"))
	add(ClassUseCommand("com.never.Defined"))
	return cmds
}

func hitsEqual(a, b []Hit) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Line != b[i].Line || a[i].Text != b[i].Text ||
			a[i].Method.SootSignature() != b[i].Method.SootSignature() {
			return false
		}
	}
	return true
}

// TestBackendParityOnGeneratedCorpus is the property test of the backend
// split: for generated corpus apps, the IndexedSearcher — built in
// memory and decoded from an encoded bundle — returns hit sets identical to
// the LinearScanner (line, text, containing method) for every search
// command kind. Caching is disabled on all engines so each command
// exercises the backend.
func TestBackendParityOnGeneratedCorpus(t *testing.T) {
	specs := appgen.EvalCorpus(appgen.CorpusOptions{Apps: 8, Seed: 20210621, SizeScale: 0.08})
	for _, spec := range specs {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			app, _, err := appgen.Generate(spec)
			if err != nil {
				t.Fatal(err)
			}
			merged, err := app.MergedDex()
			if err != nil {
				t.Fatal(err)
			}
			text := dexdump.Disassemble(merged)
			linear := NewEngine(text, Config{Meter: simtime.NewMeter(), Backend: BackendLinear})

			variants := map[string]*Engine{
				"indexed": NewEngine(text, Config{Meter: simtime.NewMeter(), Backend: BackendIndexed}),
			}
			// Warm-bundle variant: the index section of an encoded bundle,
			// decoded and fed through the Index hook — the warm-start fast
			// path.
			data, err := dexdump.EncodeBundle(text, dexdump.BuildIndex(text), 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			variants["bundle"] = NewEngine(text, Config{
				Meter: simtime.NewMeter(), Backend: BackendIndexed,
				Index: func() (*dexdump.Index, Cost, error) {
					x, err := dexdump.DecodeIndexFile(data, text)
					return x, Cost{IndexLoaded: true}, err
				},
			})

			cmds := parityQueries(merged)
			if len(cmds) < 50 {
				t.Fatalf("only %d parity queries derived — generator too small to be meaningful", len(cmds))
			}
			mismatches := 0
			for _, cmd := range cmds {
				lh, err := linear.Run(cmd)
				if err != nil {
					t.Fatal(err)
				}
				for name, e := range variants {
					ih, err := e.Run(cmd)
					if err != nil {
						t.Fatal(err)
					}
					if !hitsEqual(lh, ih) {
						mismatches++
						if mismatches <= 5 {
							t.Errorf("command %q: linear %d hits, %s %d hits\n  linear: %v\n  %s: %v",
								cmd.Key(), len(lh), name, len(ih), summarize(lh), name, summarize(ih))
						}
					}
				}
			}
			if mismatches > 0 {
				t.Fatalf("%d command/backend pairs disagree with linear", mismatches)
			}
		})
	}
}

func summarize(hits []Hit) []string {
	out := make([]string, 0, len(hits))
	for i, h := range hits {
		if i == 4 {
			out = append(out, fmt.Sprintf("... %d more", len(hits)-i))
			break
		}
		out = append(out, fmt.Sprintf("#%d %q", h.Line, h.Text))
	}
	return out
}

// TestBackendParityAdversarialLiterals pins the literal-spoofing corner:
// a const-string whose value embeds a mnemonic plus a signature satisfies
// the linear backend's Contains predicates, so the index's side lists must
// surface those lines as candidates too.
func TestBackendParityAdversarialLiterals(t *testing.T) {
	f := dex.NewFile()
	victim := dex.NewClass("com.adv.Victim").Field("f", dex.Int)
	fld := dex.NewFieldRef("com.adv.Victim", "f", dex.Int)
	use := victim.Method("use", dex.Void)
	r := use.Reg()
	use.IGet(r, use.This(), fld).ReturnVoid().Done()
	if err := f.AddClass(victim.Build()); err != nil {
		t.Fatal(err)
	}

	logger := dex.NewClass("com.adv.Logger")
	logm := logger.Method("log", dex.Void)
	logm.ConstString(logm.Reg(), "iget v1, v2, Lcom/adv/Victim;.f:I").
		ConstString(logm.Reg(), "invoke-direct {v0}, Lcom/adv/Victim;.<init>:()V trace").
		ConstString(logm.Reg(), "sput is mentioned but no signature here").
		ReturnVoid().Done()
	if err := f.AddClass(logger.Build()); err != nil {
		t.Fatal(err)
	}

	text := dexdump.Disassemble(f)
	linear := NewEngine(text, Config{Backend: BackendLinear})
	indexed := NewEngine(text, Config{Backend: BackendIndexed})

	cmds := []Command{
		FieldAccessCommand(fld, FieldReads),
		FieldAccessCommand(fld, FieldWrites),
		FieldAccessCommand(fld, FieldAny),
		CtorCommand("com.adv.Victim"),
		ClassUseCommand("com.adv.Victim"),
		// The literal embeds "invoke-direct ... .<init>:" — the prefix
		// command's linear grep matches it, so the index side list must
		// surface it too.
		InvokeNamePrefixCommand("<init>"),
		InvokeNamePrefixCommand("use"),
	}
	for _, cmd := range cmds {
		lh, err := linear.Run(cmd)
		if err != nil {
			t.Fatal(err)
		}
		ih, err := indexed.Run(cmd)
		if err != nil {
			t.Fatal(err)
		}
		if !hitsEqual(lh, ih) {
			t.Errorf("command %q: linear %d hits, indexed %d hits\n  linear:  %v\n  indexed: %v",
				cmd.Key(), len(lh), len(ih), summarize(lh), summarize(ih))
		}
	}
	// Sanity: the linear grep really does over-match the literal lines —
	// the property is only interesting if the spoof fires.
	reads, err := linear.FindFieldAccesses(fld, FieldReads)
	if err != nil {
		t.Fatal(err)
	}
	if len(reads) < 2 {
		t.Fatalf("spoof literal did not fire: %d read hits, want the real iget plus the literal", len(reads))
	}
}
