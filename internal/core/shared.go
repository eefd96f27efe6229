package core

import (
	"sync"

	"backdroid/internal/apk"
	"backdroid/internal/dex"
	"backdroid/internal/dexdump"
)

// Shared is one job's cold preprocessing, kept in memory for the other
// engines of the job (Options.Shared; DESIGN.md Sec. 13). The first
// engine over App that loads no bundle renders the dump and builds the
// index and leaves both here; a later such engine takes them instead of
// rendering and tokenizing the app again, as the paper preprocesses an
// app once for all its searches. Each engine still charges the
// disassembly and the index build a cold run charges and runs its own
// searches, so its charged units, Stats and report do not depend on
// whether it found them here. Engines over any other app ignore the
// handle. Safe for concurrent use.
type Shared struct {
	App *apk.App

	mu    sync.Mutex
	dump  *dexdump.Text
	index *dexdump.Index // built over dump
}

// cold returns app's merged dex file, tables loaded, and its rendered
// dump: the handle's dump when it serves app, else one fused walk
// (dexdump.RenderApp), whose dump a handle serving app keeps.
func (s *Shared) cold(app *apk.App) (*dex.File, *dexdump.Text, error) {
	if s == nil || s.App != app {
		return dexdump.RenderApp(app)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dump == nil {
		merged, d, err := dexdump.RenderApp(app)
		if err != nil {
			return nil, nil, err
		}
		s.dump = d
		return merged, d, nil
	}
	merged, err := app.MergedTables()
	return merged, s.dump, err
}

// indexOver returns the index over dump: the handle's when dump is the
// handle's, built once; otherwise a fresh build.
func (s *Shared) indexOver(dump *dexdump.Text) *dexdump.Index {
	if s == nil {
		return dexdump.BuildIndex(dump)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dump != dump {
		return dexdump.BuildIndex(dump)
	}
	if s.index == nil {
		s.index = dexdump.BuildIndex(dump)
	}
	return s.index
}
