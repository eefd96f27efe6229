package ir

import (
	"fmt"
	"sync"

	"backdroid/internal/dex"
)

// Program is a lazy, cached view of the IR of a whole dex file. BackDroid
// only translates the methods its targeted analysis actually touches, which
// is a large part of why it skips irrelevant code; the whole-app baseline
// translates everything.
type Program struct {
	file *dex.File

	mu       sync.Mutex
	bodies   map[string]*Body
	failures map[string]error
	observer func(dex.MethodRef)
}

// SetObserver installs a hook that sees every Body lookup — cached or not
// — before translation. The delta engine records which classes an
// analysis touched through it; nil removes it. Not safe to change while
// other goroutines use the program.
func (p *Program) SetObserver(fn func(dex.MethodRef)) { p.observer = fn }

// NewProgram wraps a dex file.
func NewProgram(f *dex.File) *Program {
	return &Program{
		file:     f,
		bodies:   make(map[string]*Body),
		failures: make(map[string]error),
	}
}

// File returns the underlying dex file.
func (p *Program) File() *dex.File { return p.file }

// Body translates (or returns the cached IR of) the method. Translation
// failures are cached too, so repeated lookups stay cheap.
func (p *Program) Body(ref dex.MethodRef) (*Body, error) {
	key := ref.SootSignature()
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.observer != nil {
		p.observer(ref)
	}
	if b, ok := p.bodies[key]; ok {
		return b, nil
	}
	if err, ok := p.failures[key]; ok {
		return nil, err
	}
	m := p.file.Method(ref)
	if m == nil {
		err := fmt.Errorf("ir: method %s not found in dex", ref)
		p.failures[key] = err
		return nil, err
	}
	b, err := Translate(m)
	if err != nil {
		p.failures[key] = err
		return nil, err
	}
	p.bodies[key] = b
	return b, nil
}

// TranslatedCount returns the number of successfully translated bodies —
// a direct measure of how much of the app an analysis touched.
func (p *Program) TranslatedCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.bodies)
}
