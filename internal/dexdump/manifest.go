package dexdump

import (
	"encoding/binary"
	"hash/fnv"
)

// Manifest: the content-addressing layer below the whole-app
// fingerprint. Every class span of a dump gets a stable fingerprint, the
// content sum of its name and body text. Two versions of an app produce
// identical span fingerprints for identical class bodies, which is what
// the delta engine's manifest diff keys on. See DESIGN.md Sec. 10.

// ManifestEntry describes one class span of the dump.
type ManifestEntry struct {
	Name        string // dotted class name, as in ClassSpan
	Fingerprint uint64 // SpanFingerprint of the class body
	Lines       int    // dump lines of the span
}

// Manifest is the per-class content map of one bundle: every class span
// in dump order.
type Manifest struct {
	Entries []ManifestEntry
}

// SpanFingerprint hashes one class span: the content sum (the codec's
// CRC-32 IEEE ‖ CRC-32C, see contentSum) of the class name, a zero byte
// and the span's dump lines, each with its newline, skipping the first
// line of the block (the "Class #N" header embeds the class's position in
// the dump, which would make the hash depend on where the class sits
// rather than what it contains). Identical class bodies therefore
// fingerprint identically across versions, positions and apps.
//
// Lines are consecutive in the text, so the body (the span's second line
// through its last newline) is one slice of it, located by two reads of
// the line table and hashed in place.
func SpanFingerprint(t *Text, sp ClassSpan) uint64 {
	var s contentSum
	s.write(bytesOf(sp.Name))
	s.write(nameEnd)
	if sp.End == sp.Start {
		return s.sum64()
	}
	s.write(bytesOf(t.full[t.ends[sp.Start]+1 : t.ends[sp.End-1]+1]))
	return s.sum64()
}

// nameEnd separates a class name from its body in a span's sum.
var nameEnd = []byte{0}

// BuildManifest computes the manifest of a dump.
func BuildManifest(t *Text) *Manifest {
	m := &Manifest{Entries: make([]ManifestEntry, len(t.spans))}
	for i, sp := range t.spans {
		m.Entries[i] = ManifestEntry{Name: sp.Name, Fingerprint: SpanFingerprint(t, sp), Lines: sp.End - sp.Start}
	}
	return m
}

// ManifestDiff is the result of diffing two manifests, expressed as class
// names: a class is Changed when both versions contain it with different
// fingerprints, Added when only the new version does, Removed when only
// the old one does.
type ManifestDiff struct {
	Changed   []string
	Added     []string
	Removed   []string
	Unchanged int // classes present in both versions with equal fingerprints
}

// Touched returns the set of class names a delta run must treat as dirty:
// changed, added and removed classes.
func (d *ManifestDiff) Touched() map[string]bool {
	set := make(map[string]bool, len(d.Changed)+len(d.Added)+len(d.Removed))
	for _, n := range d.Changed {
		set[n] = true
	}
	for _, n := range d.Added {
		set[n] = true
	}
	for _, n := range d.Removed {
		set[n] = true
	}
	return set
}

// classFold maps class name -> folded fingerprint, combining duplicate
// names (which a merged multidex dump can in principle contain) in span
// order so the fold stays deterministic.
func classFold(m *Manifest) map[string]uint64 {
	out := make(map[string]uint64, len(m.Entries))
	for _, e := range m.Entries {
		if prev, ok := out[e.Name]; ok {
			h := fnv.New64a()
			var buf [16]byte
			binary.LittleEndian.PutUint64(buf[0:8], prev)
			binary.LittleEndian.PutUint64(buf[8:16], e.Fingerprint)
			h.Write(buf[:])
			out[e.Name] = h.Sum64()
			continue
		}
		out[e.Name] = e.Fingerprint
	}
	return out
}

// DiffManifests compares the old and new manifests class by class. Class lists come back sorted by first appearance in the
// new manifest (Removed: in the old), so the diff is deterministic.
func DiffManifests(old, new *Manifest) *ManifestDiff {
	d := &ManifestDiff{}
	oldFold := classFold(old)
	newFold := classFold(new)
	seen := make(map[string]bool, len(new.Entries))
	for _, e := range new.Entries {
		if seen[e.Name] {
			continue
		}
		seen[e.Name] = true
		oldFp, ok := oldFold[e.Name]
		switch {
		case !ok:
			d.Added = append(d.Added, e.Name)
		case oldFp != newFold[e.Name]:
			d.Changed = append(d.Changed, e.Name)
		default:
			d.Unchanged++
		}
	}
	seenOld := make(map[string]bool, len(old.Entries))
	for _, e := range old.Entries {
		if seenOld[e.Name] {
			continue
		}
		seenOld[e.Name] = true
		if _, ok := newFold[e.Name]; !ok {
			d.Removed = append(d.Removed, e.Name)
		}
	}
	return d
}

// TotalClasses returns the distinct class count of both manifests' union
// — the size the manifest-diff charge scales with.
func (d *ManifestDiff) TotalClasses() int {
	return d.Unchanged + len(d.Changed) + len(d.Added) + len(d.Removed)
}

// LinesOf sums the dump lines of the named classes in this manifest
// (duplicate names count every occurrence).
func (m *Manifest) LinesOf(classes map[string]bool) int {
	n := 0
	for _, e := range m.Entries {
		if classes[e.Name] {
			n += e.Lines
		}
	}
	return n
}

// TotalLines sums every entry's dump lines.
func (m *Manifest) TotalLines() int {
	n := 0
	for _, e := range m.Entries {
		n += e.Lines
	}
	return n
}

// BuildPartialIndex tokenizes only the spans of the named classes into a
// fresh index. Postings keep global dump line numbers, so
// lookups against the partial index return lines of the full dump —
// exactly what the delta engine's replay probe needs: it re-runs a prior
// sink's recorded search commands against just the dirty spans to prove
// none of them gained a hit. The caller charges the meter for the
// tokenized lines.
func BuildPartialIndex(t *Text, classes map[string]bool) *Index {
	return build(t, func(span int) bool { return classes[t.spans[span].Name] })
}
