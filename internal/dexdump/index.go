package dexdump

import "strings"

// Index is the inverted index over the dump text. One tokenization pass
// extracts the operand tokens that the Sec. IV search commands key on —
// invoke target signatures, method-name and constructor prefixes,
// const-class operands, const-string values, field signatures and every
// embedded
// "L...;" class descriptor — and records, per token, the ascending list of
// dump lines it occurs on. A search command then touches only its postings
// instead of every dump line; candidates are still re-verified against the
// exact grep predicate, so the index over-approximates and never changes
// hit semantics. See DESIGN.md Sec. 3. A built Index holds its postings
// in maps; one decoded from a bundle reads them from the bundle's
// postings directory, one list per lookup. An Index is immutable after
// construction and safe for concurrent readers.
type Index struct {
	// maps holds a built index's postings, one map per family; a decoded
	// index has none and answers from dir instead.
	maps [families]map[string][]int32
	dir  *postingsDir // a decoded bundle's postings directory (see codec.go); nil when built

	// Side lists for lines whose string literal could satisfy a
	// Contains-style predicate in ways token extraction cannot
	// anticipate; the matching lookups always visit them too.
	oddStrings []int32 // const-string lines with escaped values
	oddFields  []int32 // quoted lines containing a field mnemonic
	oddCtors   []int32 // quoted lines containing "invoke-direct"
	oddInvokes []int32 // quoted lines containing "invoke-"

	lines    int // dump lines tokenized
	postings int // entries across the maps and side lists
}

// family names one postings map of the Index; it is also the map's
// position in the bundle's postings directory.
type family uint8

const (
	famInvokeBySig   family = iota // full target sig -> invoke-* lines
	famInvokeByNameP               // ".name:" prefix -> invoke-* lines
	famCtorByPrefix                // "Lcls;.<init>:" -> invoke-direct lines
	famConstClass                  // class descriptor -> const-class lines
	famConstString                 // rendered literal -> const-string lines
	famFieldBySig                  // field sig -> iget/iput/sget/sput lines
	famClassUse                    // class descriptor -> every line using it
	families
)

// BuildIndex tokenizes every dump line once and returns the inverted
// index. Cost is linear in the dump text; the caller is responsible for
// charging the work meter.
func BuildIndex(t *Text) *Index {
	return build(t, func(int) bool { return true })
}

// build is the one tokenization loop behind every index: it tokenizes,
// in dump order, the class spans i with keep(i). It skips the lines
// render marked as holding no token, which addLine would post nothing
// for, so a rendered Text and the same text without the table index
// alike. Lines() counts every line of the kept spans.
func build(t *Text, keep func(span int) bool) *Index {
	x := &Index{}
	for f := range x.maps {
		x.maps[f] = make(map[string][]int32)
	}
	s := scan{open: make([]int, 0, 16), posted: make([]string, 0, maxPosted)}
	for i, sp := range t.spans {
		if !keep(i) {
			continue
		}
		for n := sp.Start; n < sp.End; n++ {
			if !t.isPlain(n) {
				x.addLine(&s, int32(n), t.Line(n))
			}
		}
		x.lines += sp.End - sp.Start
	}
	return x
}

// scan is the scratch addLine reuses from line to line. It lives on one
// build call, never on the Index, so a built Index stays immutable.
type scan struct {
	open   []int    // positions of 'L' bytes no ';' has closed yet
	posted []string // classUse tokens posted on this line (at most maxPosted)
}

// maxPosted bounds the per-line classUse dedup list. Past it (only
// hostile literals carry that many descriptors) a token is deduplicated
// by probing the tail of its postings list instead.
const maxPosted = 16

// Byte classes of addLine's scan; every other byte is skipped after one
// table load.
const (
	skipByte  = iota
	classByte // 'L': may open a class descriptor
	semiByte  // ';': closes every open descriptor
	commaByte // ',': ", " starts the operand tail
	quoteByte // '"': bounds a string literal
	mnemByte  // 'i', 'c', 's': may start a family mnemonic
)

var byteClass = [256]uint8{
	'L': classByte, ';': semiByte, ',': commaByte, '"': quoteByte,
	'i': mnemByte, 'c': mnemByte, 's': mnemByte,
}

// Mnemonic bits: the substrings whose presence anywhere on a line puts
// it into a token family.
const (
	hasInvoke      = 1 << iota // "invoke-"
	hasDirect                  // "invoke-direct"
	hasConstClass              // "const-class"
	hasConstString             // "const-string"
	hasField                   // "iget", "iput", "sget" or "sput"
)

// mnemonicsAt returns the bits of the mnemonics s starts with; s[0] is
// one of the mnemByte bytes.
func mnemonicsAt(s string) uint8 {
	switch s[0] {
	case 'i':
		if strings.HasPrefix(s, "invoke-") {
			if strings.HasPrefix(s[len("invoke-"):], "direct") {
				return hasInvoke | hasDirect
			}
			return hasInvoke
		}
		if strings.HasPrefix(s, "iget") || strings.HasPrefix(s, "iput") {
			return hasField
		}
	case 'c':
		if strings.HasPrefix(s, "const-") {
			switch rest := s[len("const-"):]; {
			case strings.HasPrefix(rest, "class"):
				return hasConstClass
			case strings.HasPrefix(rest, "string"):
				return hasConstString
			}
		}
	case 's':
		if strings.HasPrefix(s, "sget") || strings.HasPrefix(s, "sput") {
			return hasField
		}
	}
	return 0
}

// addLine tokenizes one dump line in a single forward pass over its
// bytes, then files the line under every family whose mnemonic it
// contains.
func (x *Index) addLine(s *scan, n int32, line string) {
	s.open, s.posted = s.open[:0], s.posted[:0]
	tailAt, firstQuote, lastQuote := -1, -1, -1
	var mnem uint8
	for i := 0; i < len(line); i++ {
		c := byteClass[line[i]]
		if c == skipByte {
			continue
		}
		switch c {
		case classByte:
			s.open = append(s.open, i)
		case semiByte:
			// Class-descriptor occurrences anywhere on the line: every
			// "L...;" token, wherever it starts. A descriptor contains no
			// ';', so the first ';' after an 'L' closes it exactly;
			// spurious tokens (an 'L' that is not a descriptor start) only
			// bloat unqueried postings lists and are filtered by Match on
			// lookup. An 'L' no ';' follows opens no token.
			for _, o := range s.open {
				x.addClassUse(s, line[o:i+1], n)
			}
			s.open = s.open[:0]
		case commaByte:
			if i+1 < len(line) && line[i+1] == ' ' {
				tailAt = i + 2
			}
		case quoteByte:
			if firstQuote < 0 {
				firstQuote = i
			}
			lastQuote = i
		case mnemByte:
			mnem |= mnemonicsAt(line[i:])
		}
	}

	// Operand tokens live after the last ", " of an instruction line
	// (registers precede them); signatures and descriptors contain no
	// ", ", so the tail is the whole operand.
	tail := ""
	if tailAt >= 0 {
		tail = line[tailAt:]
	}
	// Double quotes appear only in const-string literals; a quoted line is
	// a literal whose content can accidentally satisfy Contains-style
	// predicates (see the side lists below).
	quoted := firstQuote >= 0

	// The family checks below are deliberately independent, not exclusive:
	// the linear grep predicates are substring tests, so a single line can
	// satisfy several families at once (e.g. a string literal whose value
	// contains a mnemonic). Indexing a line under a family it only
	// accidentally belongs to costs a posting; missing one would cost a
	// hit. Each family takes at most one token per line, which add relies
	// on.
	if mnem&hasInvoke != 0 && tail != "" {
		x.add(famInvokeBySig, tail, n)
		// The ".name:" prefix (descriptor-independent, the two-time ICC
		// search's first pass) begins at the dot after the class
		// descriptor and ends at the colon after the name.
		if p := strings.Index(tail, ";."); p >= 0 {
			needle := tail[p+1:]
			if c := strings.IndexByte(needle, ':'); c >= 0 {
				x.add(famInvokeByNameP, needle[:c+1], n)
			}
		}
		// Constructor prefix "Lcls;.<init>:" — everything up to and
		// including the colon that separates name from descriptor.
		if mnem&hasDirect != 0 {
			if c := strings.IndexByte(tail, ':'); c >= 0 {
				x.add(famCtorByPrefix, tail[:c+1], n)
			}
		}
		// A quoted line "containing" invoke- is a string literal that could
		// embed any ".name:" needle anywhere, which the linear Contains grep
		// would match; every prefix lookup must consider it.
		if quoted {
			x.addSide(&x.oddInvokes, n)
		}
	}
	if mnem&hasConstClass != 0 && tail != "" {
		x.add(famConstClass, tail, n)
	}
	if mnem&hasConstString != 0 && lastQuote > firstQuote {
		val := line[firstQuote+1 : lastQuote]
		x.add(famConstString, val, n)
		// Literals rendered with escapes can satisfy quoted-substring
		// queries that differ from the whole extracted value; keep them on
		// a side list every const-string lookup also visits.
		if strings.ContainsAny(val, `\"`) {
			x.addSide(&x.oddStrings, n)
		}
	}
	if mnem&hasField != 0 {
		if tail != "" {
			x.add(famFieldBySig, tail, n)
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
	if quoted && mnem&hasDirect != 0 {
		x.addSide(&x.oddCtors, n)
	}
}

// addClassUse posts line n under a class-use token unless this line
// already posted it (one descriptor can occur several times on a line).
func (x *Index) addClassUse(s *scan, token string, n int32) {
	if len(s.posted) < maxPosted {
		for _, p := range s.posted {
			if p == token {
				return
			}
		}
		s.posted = append(s.posted, token)
	} else if p := x.maps[famClassUse][token]; len(p) > 0 && p[len(p)-1] == n {
		return
	}
	x.add(famClassUse, token, n)
}

// add posts line n under token. Lines arrive in ascending order and a
// family takes at most one token per line, so n is never on the list
// yet and the insert is a single map assign.
func (x *Index) add(f family, token string, n int32) {
	m := x.maps[f]
	m[token] = append(m[token], n)
	x.postings++
}

// addSide appends line n to a side list; like add, it runs at most once
// per list and line.
func (x *Index) addSide(list *[]int32, n int32) {
	*list = append(*list, n)
	x.postings++
}

// list returns the postings of one token: from the family's map on a
// built index, by one directory lookup on a decoded one.
func (x *Index) list(f family, token string) []int32 {
	if x.dir != nil {
		return x.dir.lookup(f, token)
	}
	return x.maps[f][token]
}

// InvokeBySig returns the invoke lines whose target is exactly sig.
func (x *Index) InvokeBySig(sig string) []int32 {
	return x.list(famInvokeBySig, sig)
}

// InvokeByNamePrefix returns the candidate invoke lines whose target
// method name matches the ".name:" prefix regardless of declaring class
// and descriptor, plus any string literal mentioning an invoke mnemonic
// (the linear Contains grep would match those too; the caller's predicate
// filters them). This backs the two-time ICC search's first pass.
func (x *Index) InvokeByNamePrefix(prefix string) []int32 {
	return mergePostings(x.list(famInvokeByNameP, prefix), x.oddInvokes)
}

// CtorByPrefix returns the candidate invoke-direct lines calling any
// constructor with the given "Lcls;.<init>:" prefix, plus any string
// literal mentioning invoke-direct (the linear Contains grep would match
// those too; the caller's predicate filters them).
func (x *Index) CtorByPrefix(prefix string) []int32 {
	return mergePostings(x.list(famCtorByPrefix, prefix), x.oddCtors)
}

// ConstClass returns the const-class lines loading the descriptor.
func (x *Index) ConstClass(desc string) []int32 {
	return x.list(famConstClass, desc)
}

// ConstString returns the candidate const-string lines for the value: the
// lines whose whole rendered literal equals it, plus every line whose
// literal contains escapes (those can satisfy quoted-substring queries the
// value map cannot anticipate).
func (x *Index) ConstString(value string) []int32 {
	return mergePostings(x.list(famConstString, value), x.oddStrings)
}

// FieldBySig returns the candidate field access lines (reads and writes)
// of the field signature, plus any string literal containing a field
// mnemonic (those could embed the signature anywhere; the caller's
// predicate filters them).
func (x *Index) FieldBySig(sig string) []int32 {
	return mergePostings(x.list(famFieldBySig, sig), x.oddFields)
}

// ClassUse returns every line on which the class descriptor occurs.
func (x *Index) ClassUse(desc string) []int32 {
	return x.list(famClassUse, desc)
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

// Lines returns the number of dump lines the index covers.
func (x *Index) Lines() int { return x.lines }

// Postings returns the total number of postings across the token maps
// and side lists — a size/overhead measure for reports and tests.
func (x *Index) Postings() int { return x.postings }
