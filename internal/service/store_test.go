package service

import (
	"bytes"
	"encoding/binary"
	"os"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"weak"

	"backdroid/internal/apk"
	"backdroid/internal/core"
	"backdroid/internal/dex"
	"backdroid/internal/dexdump"
	"backdroid/internal/testapps"
)

func entryOf(b byte, n int) []byte { return bytes.Repeat([]byte{b}, n) }

func TestStoreGetPutAndCounters(t *testing.T) {
	s := NewBundleStore(0)
	if _, ok := s.GetBundle(1); ok {
		t.Fatal("empty store must miss")
	}
	s.PutBundle(1, entryOf('a', 10))
	data, ok := s.GetBundle(1)
	if !ok || len(data) != 10 {
		t.Fatalf("get after put = (%d bytes, %v), want 10 bytes", len(data), ok)
	}
	// Content-addressed refresh: a second put of the fingerprint must not
	// duplicate bytes.
	s.PutBundle(1, entryOf('a', 10))
	st := s.stats()
	if st.Entries != 1 || st.Bytes != 10 || st.Hits != 1 || st.Misses != 1 || st.Puts != 1 || st.Refreshes != 1 {
		t.Fatalf("stats = %+v, want 1 entry / 10 bytes / 1 hit / 1 miss / 1 put / 1 refresh", st)
	}
}

func TestStoreIgnoresEmptyAndOversized(t *testing.T) {
	s := NewBundleStore(100)
	s.PutBundle(1, nil)
	s.PutBundle(2, entryOf('x', 101)) // larger than the whole budget
	if st := s.stats(); st.Entries != 0 || st.Puts != 0 {
		t.Fatalf("stats = %+v, want nothing admitted", st)
	}
}

// TestStoreLRUEvictionOrder pins the eviction policy: under a byte
// budget, the least-recently-used fingerprints go first, and a Get
// refreshes recency.
func TestStoreLRUEvictionOrder(t *testing.T) {
	s := NewBundleStore(30)
	s.PutBundle(1, entryOf('a', 10))
	s.PutBundle(2, entryOf('b', 10))
	s.PutBundle(3, entryOf('c', 10))
	// Touch 1 so 2 becomes the LRU entry.
	if _, ok := s.GetBundle(1); !ok {
		t.Fatal("entry 1 must be present")
	}
	s.PutBundle(4, entryOf('d', 10)) // over budget: evicts 2
	if _, ok := s.GetBundle(2); ok {
		t.Fatal("entry 2 must have been evicted (LRU)")
	}
	for _, fp := range []uint64{1, 3, 4} {
		if _, ok := s.GetBundle(fp); !ok {
			t.Fatalf("entry %d must have survived", fp)
		}
	}
	st := s.stats()
	if st.Evictions != 1 || st.Entries != 3 || st.Bytes != 30 {
		t.Fatalf("stats = %+v, want exactly one eviction and a full store", st)
	}

	// A big insert evicts as many entries as the budget demands.
	s.PutBundle(5, entryOf('e', 25))
	if st := s.stats(); st.Entries != 1 || st.Bytes != 25 {
		t.Fatalf("stats after big insert = %+v, want only the new entry", st)
	}
	if !s.Contains(5) {
		t.Fatal("the big insert itself was evicted")
	}
}

// TestStoreDropBundle pins the damaged-entry repair path: dropping a
// fingerprint frees its bytes and lets a subsequent Put really replace
// the entry (a Put for a present fingerprint is only a refresh).
func TestStoreDropBundle(t *testing.T) {
	s := NewBundleStore(0)
	s.PutBundle(1, entryOf('a', 10))
	s.PutBundle(1, entryOf('a', 10)) // refresh, not replace
	s.DropBundle(1)
	s.DropBundle(1) // idempotent
	if _, ok := s.GetBundle(1); ok {
		t.Fatal("dropped entry still served")
	}
	s.PutBundle(1, entryOf('b', 20))
	data, ok := s.GetBundle(1)
	if !ok || len(data) != 20 || data[0] != 'b' {
		t.Fatalf("put after drop = (%d bytes, %v), want the new 20-byte entry", len(data), ok)
	}
	if st := s.stats(); st.Entries != 1 || st.Bytes != 20 || st.Drops != 1 || st.Evictions != 0 {
		t.Fatalf("stats = %+v, want 1 entry / 20 bytes / 1 drop / 0 evictions", st)
	}
}

func TestStoreConcurrentUse(t *testing.T) {
	s := NewBundleStore(1 << 20)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				fp := uint64(i % 17)
				s.PutBundle(fp, entryOf(byte(fp), 64))
				s.GetBundle(fp)
			}
		}(g)
	}
	wg.Wait()
	if st := s.stats(); st.Entries != 17 || st.Bytes != 17*64 {
		t.Fatalf("stats = %+v, want 17 entries", st)
	}
}

func TestLockFingerprintSerializes(t *testing.T) {
	s := NewBundleStore(0)
	release := s.LockFingerprint(7)
	acquired, released := make(chan struct{}), make(chan struct{})
	go func() {
		r := s.LockFingerprint(7)
		close(acquired)
		r()
		close(released)
	}()
	select {
	case <-acquired:
		t.Fatal("second lock acquired while the first is held")
	default:
	}
	release()
	<-acquired
	<-released
	// The lock table must drain once all holders release.
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.inflight) != 0 {
		t.Fatalf("inflight table has %d entries after release", len(s.inflight))
	}
}

// TestLegacyBundleIsSilentMiss: a bundle of codec version 3, 4 or 5 in the
// store and in the disk cache is a silent miss. The job succeeds with the
// verdicts of a cold run, the store drops the stale entry and holds a
// current bundle instead, the disk file is rewritten at the current
// version, and the next job is a store hit. A stale file on disk alone is
// rewritten the same way.
func TestLegacyBundleIsSilentMiss(t *testing.T) {
	app, err := testapps.Fixture()
	if err != nil {
		t.Fatal(err)
	}
	ref := New(Config{Workers: 1})
	defer ref.Close()
	cold := runFixtureJob(t, ref, app)

	for _, tc := range []struct {
		name    string
		inStore bool
	}{{"store-and-disk", true}, {"disk-only", false}} {
		t.Run(tc.name, func(t *testing.T) {
			for _, legacy := range []struct {
				name   string
				bundle func() []byte
			}{{"v3", testapps.FixtureV3Bundle}, {"v4", testapps.FixtureV4Bundle}, {"v5", testapps.FixtureV5Bundle}} {
				t.Run(legacy.name, func(t *testing.T) {
					legacyBundleRun(t, app, cold, legacy.bundle, tc.inStore)
				})
			}
		})
	}
}

// legacyBundleRun seeds a fresh disk cache, and the store when inStore
// is set, with the legacy bundle and checks that the next two jobs are a
// cold run that rewrites both at the current version and a store hit.
func legacyBundleRun(t *testing.T, app *apk.App, cold *JobResult, legacy func() []byte, inStore bool) {
	fp := app.Fingerprint()
	dir := t.TempDir()
	path := dexdump.CachePath(dir, app.Name)
	if err := os.WriteFile(path, legacy(), 0o644); err != nil {
		t.Fatal(err)
	}
	store := NewBundleStore(0)
	wantDrops := int64(0)
	if inStore {
		store.PutBundle(fp, legacy())
		wantDrops = 1
	}
	opts := core.DefaultOptions()
	opts.IndexCacheDir = dir
	s := New(Config{Workers: 1, Store: store, Options: &opts})
	defer s.Close()

	first := runFixtureJob(t, s, app)
	st := first.BackDroid.Stats
	if st.BundleStoreHits != 0 || st.DumpCacheHits != 0 || st.DumpLinesDisassembled == 0 {
		t.Errorf("stats %+v, want a cold run", st)
	}
	if got, want := detectionKey(first.BackDroid), detectionKey(cold.BackDroid); got != want {
		t.Errorf("verdicts\n%s\nwant\n%s", got, want)
	}
	if drops := store.stats().Drops; drops != wantDrops {
		t.Errorf("%d store drops, want %d", drops, wantDrops)
	}
	stored, ok := store.GetBundle(fp)
	if !ok || binary.LittleEndian.Uint16(stored[4:6]) != dexdump.CodecVersion {
		t.Fatal("store holds no current bundle")
	}
	if onDisk, err := os.ReadFile(path); err != nil || !bytes.Equal(onDisk, stored) {
		t.Errorf("disk file not rewritten as the stored bundle (%v)", err)
	}
	if again := runFixtureJob(t, s, app); again.BackDroid.Stats.BundleStoreHits != 1 {
		t.Errorf("next job is not a store hit: %+v", again.BackDroid.Stats)
	}
}

// runFixtureJob runs one BackDroid job over app on s.
func runFixtureJob(t *testing.T, s *Scheduler, app *apk.App) *JobResult {
	t.Helper()
	id, err := s.Submit(Job{Name: app.Name, Source: func() (*apk.App, error) { return app, nil }, RunBackDroid: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Wait(id)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestStoreTextOutlivesEntry: a Text decoded from a store entry aliases
// the entry's bytes, so it must stay whole after the entry is dropped,
// the rest of the store is evicted and the garbage collector has run:
// every line, the dump sum and a fresh encode of the text equal what
// they were before the drop.
func TestStoreTextOutlivesEntry(t *testing.T) {
	app, err := testapps.Fixture()
	if err != nil {
		t.Fatal(err)
	}
	merged, err := app.MergedDex()
	if err != nil {
		t.Fatal(err)
	}
	fp := app.Fingerprint()
	cold := dexdump.Disassemble(merged)
	encoded, err := dexdump.EncodeBundle(cold, dexdump.BuildIndex(cold), fp, nil)
	if err != nil {
		t.Fatal(err)
	}
	budget := int64(2 * len(encoded))
	store := NewBundleStore(budget)
	store.PutBundle(fp, encoded)
	encoded = nil

	entry, ok := store.GetBundle(fp)
	if !ok {
		t.Fatal("store did not admit the bundle")
	}
	want := bytes.Clone(entry)
	r, err := dexdump.ReadBundle(entry)
	if err != nil {
		t.Fatal(err)
	}
	text, err := r.Dump(fp)
	if err != nil {
		t.Fatal(err)
	}
	x, err := r.Index(text)
	if err != nil {
		t.Fatal(err)
	}
	lines := make([]string, text.LineCount())
	for i := range lines {
		lines[i] = strings.Clone(text.Line(i))
	}
	entry, r = nil, nil

	store.DropBundle(fp)
	for i := uint64(1); i <= 4; i++ {
		store.PutBundle(fp+i, entryOf(0xAA, int(budget/2)))
	}
	if store.Contains(fp) || store.stats().Evictions == 0 {
		t.Fatalf("store still holds the entry or evicted nothing: %+v", store.stats())
	}
	runtime.GC()
	runtime.GC()

	for i, line := range lines {
		if got := text.Line(i); got != line {
			t.Fatalf("line %d = %q after the drop, was %q", i, got, line)
		}
	}
	if got, wantSum := dexdump.DumpHash(text), dexdump.DumpHash(cold); got != wantSum {
		t.Errorf("DumpHash %#x after the drop, want %#x", got, wantSum)
	}
	again, err := dexdump.EncodeBundle(text, x, fp, nil)
	if err != nil || !bytes.Equal(again, want) {
		t.Errorf("re-encoded bundle differs from the entry taken before the drop (err %v)", err)
	}
}

// TestConcurrentStoreHitsShareEntry runs two store-hit jobs on one entry
// at the same time; both read the entry's bytes in place, so under -race
// this checks that nothing writes to them. Both must be full hits with
// the cold run's verdicts.
func TestConcurrentStoreHitsShareEntry(t *testing.T) {
	app, err := testapps.Fixture()
	if err != nil {
		t.Fatal(err)
	}
	data, err := app.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Workers: 2, Store: NewBundleStore(0)})
	defer s.Close()
	submit := func() JobID {
		id, err := s.Submit(Job{Name: app.Name, RunBackDroid: true,
			Source: func() (*apk.App, error) { return apk.ReadBytes(app.Name, data) }})
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	wait := func(id JobID) *JobResult {
		res, err := s.Wait(id)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	cold := wait(submit())
	a, b := submit(), submit()
	for _, res := range []*JobResult{wait(a), wait(b)} {
		if st := res.BackDroid.Stats; st.BundleStoreHits != 1 || st.DumpLinesDisassembled != 0 {
			t.Errorf("job was not a store hit: %+v", st)
		}
		if got, want := detectionKey(res.BackDroid), detectionKey(cold.BackDroid); got != want {
			t.Errorf("verdicts\n%s\nwant\n%s", got, want)
		}
	}
}

// TestStoreHitReportReleasesEntry: a store-hit job's report lives on in
// the scheduler (the delta base of its job name) and in the settled
// report store, while the bundle it was decoded from may be dropped. The
// report must keep none of the bundle's bytes: once the entry leaves the
// store and the garbage collector has run, the entry's memory is gone.
func TestStoreHitReportReleasesEntry(t *testing.T) {
	app, err := testapps.Fixture()
	if err != nil {
		t.Fatal(err)
	}
	fp := app.Fingerprint()
	store := NewBundleStore(0)
	primer := New(Config{Workers: 1, Store: store})
	runFixtureJob(t, primer, app)
	primer.Close()

	entry, ok := store.GetBundle(fp)
	if !ok {
		t.Fatal("cold job stored no bundle")
	}
	gone := weak.Make(&entry[0])
	entry = nil

	s := New(Config{Workers: 1, Store: store, Reports: NewReportStore(0)})
	defer s.Close()
	res := runFixtureJob(t, s, app)
	if st := res.BackDroid.Stats; st.BundleStoreHits != 1 {
		t.Fatalf("job was not a store hit: %+v", st)
	}
	if n := s.Reports().stats().Entries; n != 1 {
		t.Fatalf("%d settled reports, want the store-hit report", n)
	}

	store.DropBundle(fp)
	runtime.GC()
	runtime.GC()
	if gone.Value() != nil {
		t.Error("the dropped entry is still reachable from the store-hit report")
	}
	runtime.KeepAlive(res)
}

// TestStoreHitReportReleasesDexBytes: a store hit loads only the dex
// tables, and each method whose body it never decodes keeps the app's
// dex bytes to decode from. The report outlives the job (as the job
// name's delta base and in the settled report store), so it must reach
// neither the app nor the engine's dex view: once the garbage collector
// has run, the dex bytes are gone.
func TestStoreHitReportReleasesDexBytes(t *testing.T) {
	fixture, err := testapps.Fixture()
	if err != nil {
		t.Fatal(err)
	}
	data, err := fixture.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	store := NewBundleStore(0)
	primer := New(Config{Workers: 1, Store: store})
	runFixtureJob(t, primer, fixture)
	primer.Close()

	var gone weak.Pointer[byte]
	s := New(Config{Workers: 1, Store: store, Reports: NewReportStore(0)})
	defer s.Close()
	id, err := s.Submit(Job{Name: fixture.Name, RunBackDroid: true, Source: func() (*apk.App, error) {
		app, err := apk.ReadBytes(fixture.Name, data)
		if err == nil {
			gone = weak.Make(dexBytes(app.Dexes[0]))
		}
		return app, err
	}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Wait(id)
	if err != nil {
		t.Fatal(err)
	}
	if st := res.BackDroid.Stats; st.BundleStoreHits != 1 {
		t.Fatalf("job was not a store hit: %+v", st)
	}
	if n := s.Reports().stats().Entries; n != 1 {
		t.Fatalf("%d settled reports, want the store-hit report", n)
	}

	runtime.GC()
	runtime.GC()
	if gone.Value() != nil {
		t.Error("the app's dex bytes are still reachable from the store-hit report")
	}
	runtime.KeepAlive(res)
}

// TestColdReportReleasesDexBytes is the cold twin of
// TestStoreHitReportReleasesDexBytes: a cold job renders each body in
// the walk that loads the dex tables and leaves it pending, so each
// method it never translates keeps the dex bytes to decode from. The
// report, kept as the job name's delta base and in the settled report
// store, must reach neither the app nor the engine's dex view.
func TestColdReportReleasesDexBytes(t *testing.T) {
	fixture, err := testapps.Fixture()
	if err != nil {
		t.Fatal(err)
	}
	data, err := fixture.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	var gone weak.Pointer[byte]
	s := New(Config{Workers: 1, Store: NewBundleStore(0), Reports: NewReportStore(0)})
	defer s.Close()
	id, err := s.Submit(Job{Name: fixture.Name, RunBackDroid: true, Source: func() (*apk.App, error) {
		app, err := apk.ReadBytes(fixture.Name, data)
		if err == nil {
			gone = weak.Make(dexBytes(app.Dexes[0]))
		}
		return app, err
	}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Wait(id)
	if err != nil {
		t.Fatal(err)
	}
	if st := res.BackDroid.Stats; st.BundleStoreHits != 0 || st.DumpLinesDisassembled == 0 {
		t.Fatalf("job was not cold: %+v", st)
	}
	if n := s.Reports().stats().Entries; n != 1 {
		t.Fatalf("%d settled reports, want the cold report", n)
	}
	if n := s.deltaBases(); n != 1 {
		t.Fatalf("%d delta bases, want the cold report", n)
	}

	runtime.GC()
	runtime.GC()
	if gone.Value() != nil {
		t.Error("the app's dex bytes are still reachable from the cold report")
	}
	runtime.KeepAlive(res)
}

// dexBytes returns the first byte of the encoded bytes a dex file made by
// dex.Open decodes from. Nothing exports them, so it reads the file's
// unexported raw field; the file must not be loaded yet.
func dexBytes(f *dex.File) *byte {
	return (*byte)(reflect.ValueOf(f).Elem().FieldByName("raw").UnsafePointer())
}
