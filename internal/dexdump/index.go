package dexdump

import "strings"

// Index is the inverted index over the dump text. One tokenization pass
// extracts the operand tokens that the Sec. IV search commands key on —
// invoke target signatures, class descriptors of new-instance/const-class
// operands, const-string values, field signatures and every embedded
// "L...;" class descriptor — and records, per token, the ascending list of
// dump lines it occurs on. A search command then touches only its postings
// instead of every dump line; candidates are still re-verified against the
// exact grep predicate, so the index over-approximates and never changes
// hit semantics. See DESIGN.md Sec. 3.
//
// Postings are line numbers in ascending order. An Index is immutable
// after construction and safe for concurrent readers.
type Index struct {
	invokeBySig   map[string][]int32 // full target sig -> invoke-* lines
	invokeByName  map[string][]int32 // ".name:descriptor" -> invoke-* lines
	invokeByNameP map[string][]int32 // ".name:" prefix -> invoke-* lines
	ctorByPrefix  map[string][]int32 // "Lcls;.<init>:" -> invoke-direct lines
	newInstance   map[string][]int32 // class descriptor -> new-instance lines
	constClass    map[string][]int32 // class descriptor -> const-class lines
	constString   map[string][]int32 // rendered literal -> const-string lines
	fieldBySig    map[string][]int32 // field sig -> iget/iput/sget/sput lines
	classUse      map[string][]int32 // class descriptor -> every line using it

	// Side lists for lines whose string literal could satisfy a
	// Contains-style predicate in ways token extraction cannot
	// anticipate; the matching lookups always visit them too.
	oddStrings []int32 // const-string lines with escaped values
	oddFields  []int32 // quoted lines containing a field mnemonic
	oddCtors   []int32 // quoted lines containing "invoke-direct"
	oddInvokes []int32 // quoted lines containing "invoke-"

	lines    int
	postings int
}

// Source is the postings interface the indexed search backend resolves
// commands against. Both the single merged Index and the ShardedIndex
// implement it; every lookup returns an ascending, duplicate-free list of
// candidate dump lines that the caller re-verifies against the exact
// command predicate.
type Source interface {
	InvokeBySig(sig string) []int32
	InvokeByName(needle string) []int32
	InvokeByNamePrefix(prefix string) []int32
	CtorByPrefix(prefix string) []int32
	NewInstance(desc string) []int32
	ConstClass(desc string) []int32
	ConstString(value string) []int32
	FieldBySig(sig string) []int32
	ClassUse(desc string) []int32
	Lines() int
	Postings() int
	ShardCount() int
}

func newIndex(lines int) *Index {
	return &Index{
		invokeBySig:   make(map[string][]int32),
		invokeByName:  make(map[string][]int32),
		invokeByNameP: make(map[string][]int32),
		ctorByPrefix:  make(map[string][]int32),
		newInstance:   make(map[string][]int32),
		constClass:    make(map[string][]int32),
		constString:   make(map[string][]int32),
		fieldBySig:    make(map[string][]int32),
		classUse:      make(map[string][]int32),
		lines:         lines,
	}
}

// BuildIndex tokenizes every dump line once and returns the inverted
// index. Cost is linear in the dump text; the caller is responsible for
// charging the work meter.
func BuildIndex(t *Text) *Index {
	idx := newIndex(len(t.lines))
	for i, line := range t.lines {
		idx.addLine(int32(i), line)
	}
	return idx
}

func (x *Index) addLine(n int32, line string) {
	// Class-descriptor occurrences anywhere on the line: every "L...;"
	// token, wherever it starts. A descriptor contains no ';', so if one
	// occurs at position i the first ';' at or after i closes it exactly;
	// spurious tokens (an 'L' that is not a descriptor start) only bloat
	// unqueried postings lists and are filtered by Match on lookup.
	for i := 0; i < len(line); i++ {
		if line[i] != 'L' {
			continue
		}
		j := strings.IndexByte(line[i:], ';')
		if j < 0 {
			break // no ';' remains, no further descriptor can close
		}
		x.add(x.classUse, line[i:i+j+1], n)
	}

	// Operand tokens live after the last ", " of an instruction line
	// (registers precede them); signatures and descriptors contain no
	// ", ", so the tail is the whole operand.
	tail := ""
	if k := strings.LastIndex(line, ", "); k >= 0 {
		tail = line[k+2:]
	}
	// Double quotes appear only in const-string literals; a quoted line is
	// a literal whose content can accidentally satisfy Contains-style
	// predicates (see the side lists below).
	quoted := strings.IndexByte(line, '"') >= 0

	// The family checks below are deliberately independent, not exclusive:
	// the linear grep predicates are substring tests, so a single line can
	// satisfy several families at once (e.g. a string literal whose value
	// contains a mnemonic). Indexing a line under a family it only
	// accidentally belongs to costs a posting; missing one would cost a
	// hit.
	if strings.Contains(line, "invoke-") && tail != "" {
		x.add(x.invokeBySig, tail, n)
		// ".name:descriptor" begins at the dot after the class descriptor;
		// the ".name:" prefix (descriptor-independent, the two-time ICC
		// search's first pass) ends at the colon after the name.
		if p := strings.Index(tail, ";."); p >= 0 {
			needle := tail[p+1:]
			x.add(x.invokeByName, needle, n)
			if c := strings.IndexByte(needle, ':'); c >= 0 {
				x.add(x.invokeByNameP, needle[:c+1], n)
			}
		}
		// Constructor prefix "Lcls;.<init>:" — everything up to and
		// including the colon that separates name from descriptor.
		if strings.Contains(line, "invoke-direct") {
			if c := strings.IndexByte(tail, ':'); c >= 0 {
				x.add(x.ctorByPrefix, tail[:c+1], n)
			}
		}
		// A quoted line "containing" invoke- is a string literal that could
		// embed any ".name:" needle anywhere, which the linear Contains grep
		// would match; every prefix lookup must consider it.
		if quoted {
			x.addSide(&x.oddInvokes, n)
		}
	}
	if strings.Contains(line, "new-instance") && tail != "" {
		x.add(x.newInstance, tail, n)
	}
	if strings.Contains(line, "const-class") && tail != "" {
		x.add(x.constClass, tail, n)
	}
	if strings.Contains(line, "const-string") {
		i := strings.IndexByte(line, '"')
		j := strings.LastIndexByte(line, '"')
		if i >= 0 && j > i {
			val := line[i+1 : j]
			x.add(x.constString, val, n)
			// Literals rendered with escapes can satisfy quoted-substring
			// queries that differ from the whole extracted value; keep
			// them on a side list every const-string lookup also visits.
			if strings.ContainsAny(val, `\"`) {
				x.addSide(&x.oddStrings, n)
			}
		}
	}
	if strings.Contains(line, "iget") || strings.Contains(line, "iput") ||
		strings.Contains(line, "sget") || strings.Contains(line, "sput") {
		if tail != "" {
			x.add(x.fieldBySig, tail, n)
		}
		// Only string literals carry double quotes in the dump; a quoted
		// line "containing" a field mnemonic is a literal that could also
		// embed any field signature, so every field lookup must consider
		// it (the linear grep would match it too).
		if quoted {
			x.addSide(&x.oddFields, n)
		}
	}
	// Same literal vector for the constructor search's Contains predicate.
	if quoted && strings.Contains(line, "invoke-direct") {
		x.addSide(&x.oddCtors, n)
	}
}

// addSide appends line n to a side list, deduplicating repeats.
func (x *Index) addSide(list *[]int32, n int32) {
	if p := *list; len(p) > 0 && p[len(p)-1] == n {
		return
	}
	*list = append(*list, n)
	x.postings++
}

// add appends line n to the postings list of token, deduplicating
// consecutive inserts (the same token can occur twice on one line).
func (x *Index) add(m map[string][]int32, token string, n int32) {
	p := m[token]
	if len(p) > 0 && p[len(p)-1] == n {
		return
	}
	m[token] = append(p, n)
	x.postings++
}

// InvokeBySig returns the invoke lines whose target is exactly sig.
func (x *Index) InvokeBySig(sig string) []int32 { return x.invokeBySig[sig] }

// InvokeByName returns the invoke lines whose target ends in
// ".name:descriptor" regardless of declaring class.
func (x *Index) InvokeByName(needle string) []int32 { return x.invokeByName[needle] }

// InvokeByNamePrefix returns the candidate invoke lines whose target
// method name matches the ".name:" prefix regardless of declaring class
// and descriptor, plus any string literal mentioning an invoke mnemonic
// (the linear Contains grep would match those too; the caller's predicate
// filters them). This backs the two-time ICC search's first pass, which
// previously fell back to a raw O(lines) scan.
func (x *Index) InvokeByNamePrefix(prefix string) []int32 {
	return mergePostings(x.invokeByNameP[prefix], x.oddInvokes)
}

// CtorByPrefix returns the candidate invoke-direct lines calling any
// constructor with the given "Lcls;.<init>:" prefix, plus any string
// literal mentioning invoke-direct (the linear Contains grep would match
// those too; the caller's predicate filters them).
func (x *Index) CtorByPrefix(prefix string) []int32 {
	return mergePostings(x.ctorByPrefix[prefix], x.oddCtors)
}

// NewInstance returns the new-instance lines allocating the descriptor.
func (x *Index) NewInstance(desc string) []int32 { return x.newInstance[desc] }

// ConstClass returns the const-class lines loading the descriptor.
func (x *Index) ConstClass(desc string) []int32 { return x.constClass[desc] }

// ConstString returns the candidate const-string lines for the value: the
// lines whose whole rendered literal equals it, plus every line whose
// literal contains escapes (those can satisfy quoted-substring queries the
// value map cannot anticipate).
func (x *Index) ConstString(value string) []int32 {
	return mergePostings(x.constString[value], x.oddStrings)
}

// FieldBySig returns the candidate field access lines (reads and writes)
// of the field signature, plus any string literal containing a field
// mnemonic (those could embed the signature anywhere; the caller's
// predicate filters them).
func (x *Index) FieldBySig(sig string) []int32 {
	return mergePostings(x.fieldBySig[sig], x.oddFields)
}

// mergePostings merges two ascending duplicate-free postings lists into
// one ascending duplicate-free list.
func mergePostings(a, b []int32) []int32 {
	if len(b) == 0 {
		return a
	}
	if len(a) == 0 {
		return b
	}
	out := make([]int32, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case j >= len(b) || (i < len(a) && a[i] < b[j]):
			out = append(out, a[i])
			i++
		case i >= len(a) || b[j] < a[i]:
			out = append(out, b[j])
			j++
		default: // equal line in both lists
			out = append(out, a[i])
			i, j = i+1, j+1
		}
	}
	return out
}

// ClassUse returns every line on which the class descriptor occurs.
func (x *Index) ClassUse(desc string) []int32 { return x.classUse[desc] }

// Lines returns the number of dump lines the index covers.
func (x *Index) Lines() int { return x.lines }

// Postings returns the total number of postings across all token maps — a
// size/overhead measure for reports and tests.
func (x *Index) Postings() int { return x.postings }

// ShardCount returns 1: a single merged Index is one shard.
func (x *Index) ShardCount() int { return 1 }
