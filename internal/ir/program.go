package ir

import (
	"fmt"
	"hash/maphash"
	"sync"

	"backdroid/internal/dex"
)

// MethodID is a method's number in one Program's method table: dense,
// assigned in order of first sight, and meaningful only to the Program
// that assigned it. It is how the engine keys a method — in the body
// cache, the SSG, the slicer and the forward pass — instead of spelling
// out its Soot signature, much as Dalvik names a method by its index into
// the dex file's method_ids table.
type MethodID int32

// Program is a lazy, cached view of the IR of a whole dex file. BackDroid
// only translates the methods its targeted analysis actually touches, which
// is a large part of why it skips irrelevant code; the whole-app baseline
// translates everything.
type Program struct {
	file *dex.File

	mu       sync.Mutex
	seed     maphash.Seed
	byHash   map[uint64]MethodID // first ID of each hash; next chains the rest
	methods  []method            // indexed by MethodID
	observer func(dex.MethodRef)
}

// method is one method table entry: the ref, the next entry with the same
// hash (-1 ends the chain), and the cached translation outcome.
type method struct {
	ref        dex.MethodRef
	next       MethodID
	body       *Body
	err        error // translation failure, cached like a body
	translated bool  // body or err is final
}

// SetObserver installs a hook that sees every Body lookup — cached or not
// — before translation. The delta engine records which classes an
// analysis touched through it; nil removes it. Not safe to change while
// other goroutines use the program.
func (p *Program) SetObserver(fn func(dex.MethodRef)) { p.observer = fn }

// NewProgram wraps a dex file.
func NewProgram(f *dex.File) *Program {
	return &Program{file: f, seed: maphash.MakeSeed(), byHash: make(map[uint64]MethodID)}
}

// File returns the underlying dex file.
func (p *Program) File() *dex.File { return p.file }

// ID returns the method's number in this program's table, adding the
// method on first sight. Two refs get the same ID exactly when they are
// Equal. The lookup hashes the ref's fields in place and allocates only
// when it adds an entry.
func (p *Program) ID(ref dex.MethodRef) MethodID {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.id(ref)
}

// id is ID with p.mu held.
func (p *Program) id(ref dex.MethodRef) MethodID {
	h := p.hash(&ref)
	first, ok := p.byHash[h]
	if ok {
		for id := first; id >= 0; id = p.methods[id].next {
			if p.methods[id].ref.Equal(ref) {
				return id
			}
		}
	} else {
		first = -1
	}
	id := MethodID(len(p.methods))
	p.methods = append(p.methods, method{ref: ref, next: first})
	p.byHash[h] = id
	return id
}

// hash mixes the ref's fields under the program's seed. Each field ends
// in a zero byte, so moving bytes between fields changes the input; the
// seed keeps one app from steering many refs into one chain.
func (p *Program) hash(ref *dex.MethodRef) uint64 {
	var h maphash.Hash
	h.SetSeed(p.seed)
	h.WriteString(ref.Class)
	h.WriteByte(0)
	h.WriteString(ref.Name)
	h.WriteByte(0)
	h.WriteString(string(ref.Ret))
	for _, t := range ref.Params {
		h.WriteByte(0)
		h.WriteString(string(t))
	}
	return h.Sum64()
}

// Ref returns the method an ID names. It panics on an ID this program
// did not assign.
func (p *Program) Ref(id MethodID) dex.MethodRef {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.methods[id].ref
}

// Body translates (or returns the cached IR of) the method. Translation
// failures are cached too, so repeated lookups stay cheap.
func (p *Program) Body(ref dex.MethodRef) (*Body, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.body(p.id(ref))
}

// BodyOf is Body for a method already in the table.
func (p *Program) BodyOf(id MethodID) (*Body, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.body(id)
}

// body is BodyOf with p.mu held.
func (p *Program) body(id MethodID) (*Body, error) {
	m := &p.methods[id]
	if p.observer != nil {
		p.observer(m.ref)
	}
	if m.translated {
		return m.body, m.err
	}
	m.translated = true
	dm := p.file.Method(m.ref)
	if dm == nil {
		m.err = fmt.Errorf("ir: method %s not found in dex", m.ref)
		return nil, m.err
	}
	b, err := Translate(dm)
	if err != nil {
		m.err = err
		return nil, err
	}
	m.body = b
	return b, nil
}

// TranslatedCount returns the number of successfully translated bodies —
// a direct measure of how much of the app an analysis touched.
func (p *Program) TranslatedCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for i := range p.methods {
		if p.methods[i].body != nil {
			n++
		}
	}
	return n
}
