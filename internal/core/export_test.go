package core

import "backdroid/internal/dexdump"

// EngineDump returns the dump text an engine searches.
func EngineDump(e *Engine) *dexdump.Text { return e.dump }

// SharedParts returns what a handle holds: the dump and the index over it.
func SharedParts(s *Shared) (*dexdump.Text, *dexdump.Index) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dump, s.index
}
