package bcsearch

import (
	"testing"

	"backdroid/internal/dex"
	"backdroid/internal/dexdump"
	"backdroid/internal/simtime"
)

// TestIndexedStatsCacheAccounting pins the Sec. IV-F cache accounting on
// the indexed backend: commands and cache hits count exactly as on the
// linear backend (the cache sits above the backend), the index is built
// once, and cache hits visit no postings.
func TestIndexedStatsCacheAccounting(t *testing.T) {
	e := NewEngine(searchFixture(t), Config{Meter: simtime.NewMeter(), EnableCache: true})
	if e.Backend() != BackendIndexed {
		t.Fatalf("default backend = %v, want indexed", e.Backend())
	}
	ref := dex.NewMethodRef("com.connectsdk.service.netcast.NetcastHttpServer", "start", dex.Void)

	if _, err := e.FindInvocations(ref); err != nil {
		t.Fatal(err)
	}
	first := e.Stats()
	if first.Commands != 1 || first.CacheHits != 0 {
		t.Fatalf("after miss: %+v", first)
	}
	if first.IndexBuilds != 1 || first.IndexLines == 0 {
		t.Errorf("index should be built on the first command: %+v", first)
	}
	if first.LinesScanned != 0 {
		t.Errorf("indexed invoke search scanned %d lines, want 0", first.LinesScanned)
	}
	if first.PostingsScanned == 0 {
		t.Errorf("indexed search visited no postings: %+v", first)
	}

	if _, err := e.FindInvocations(ref); err != nil {
		t.Fatal(err)
	}
	second := e.Stats()
	if second.Commands != 2 || second.CacheHits != 1 {
		t.Errorf("after hit: %+v", second)
	}
	if second.Rate() != 0.5 {
		t.Errorf("rate = %f, want 0.5", second.Rate())
	}
	if second.PostingsScanned != first.PostingsScanned {
		t.Errorf("cache hit visited postings: %+v vs %+v", second, first)
	}
	if second.IndexBuilds != 1 {
		t.Errorf("index rebuilt: %+v", second)
	}

	// A different command is a miss again, reusing the existing index.
	if _, err := e.FindConstClass("com.connectsdk.service.netcast.NetcastHttpServer"); err != nil {
		t.Fatal(err)
	}
	third := e.Stats()
	if third.Commands != 3 || third.CacheHits != 1 {
		t.Errorf("after second miss: %+v", third)
	}
	if third.IndexBuilds != 1 {
		t.Errorf("index rebuilt on second miss: %+v", third)
	}
	if third.Rate() != 1.0/3.0 {
		t.Errorf("rate = %f, want 1/3", third.Rate())
	}
}

// TestIndexedCacheDisabledNoHits mirrors the linear cache-off test on the
// indexed backend: repeated commands re-run the postings lookup and never
// count as hits.
func TestIndexedCacheDisabledNoHits(t *testing.T) {
	e := NewEngine(searchFixture(t), Config{Meter: simtime.NewMeter(), EnableCache: false})
	ref := dex.NewMethodRef("com.connectsdk.service.netcast.NetcastHttpServer", "start", dex.Void)
	var prevPostings int64
	for i := 0; i < 3; i++ {
		if _, err := e.FindInvocations(ref); err != nil {
			t.Fatal(err)
		}
		st := e.Stats()
		if st.CacheHits != 0 {
			t.Fatalf("cache disabled but hits = %d", st.CacheHits)
		}
		if i > 0 && st.PostingsScanned <= prevPostings {
			t.Errorf("iteration %d: postings did not grow (%d -> %d), lookup not re-run",
				i, prevPostings, st.PostingsScanned)
		}
		prevPostings = st.PostingsScanned
	}
	if st := e.Stats(); st.Commands != 3 || st.IndexBuilds != 1 {
		t.Errorf("stats = %+v, want 3 commands / 1 index build", st)
	}
}

// TestIndexedCacheHitChargesOneUnit pins the meter contract on the
// indexed backend: a cache hit costs exactly one unit, as on linear.
func TestIndexedCacheHitChargesOneUnit(t *testing.T) {
	meter := simtime.NewMeter()
	e := NewEngine(searchFixture(t), Config{Meter: meter, EnableCache: true})
	ref := dex.NewMethodRef("com.connectsdk.service.netcast.NetcastHttpServer", "start", dex.Void)
	if _, err := e.FindInvocations(ref); err != nil {
		t.Fatal(err)
	}
	before := meter.Units()
	if before == 0 {
		t.Fatal("index build and lookup must charge the meter")
	}
	if _, err := e.FindInvocations(ref); err != nil {
		t.Fatal(err)
	}
	if got := meter.Units() - before; got != 1 {
		t.Errorf("cached command charged %d units, want 1", got)
	}
}

// TestIndexedTimeoutDuringBuild verifies an exhausted budget aborts the
// index build itself, mirroring the linear backend's scan timeout.
func TestIndexedTimeoutDuringBuild(t *testing.T) {
	meter := simtime.NewMeter()
	meter.SetBudget(1)
	e := NewEngine(searchFixture(t), Config{Meter: meter, EnableCache: true})
	ref := dex.NewMethodRef("com.connectsdk.service.netcast.NetcastHttpServer", "start", dex.Void)
	if _, err := e.FindInvocations(ref); err != simtime.ErrTimeout {
		t.Errorf("err = %v, want ErrTimeout", err)
	}
}

// TestCanceledMeterStopsLookups pins the cancellation hook: once the
// meter latches a cancel, no further search command runs — not even a
// cache hit, whose single-unit charge might never reach the next
// checkpoint on its own.
func TestCanceledMeterStopsLookups(t *testing.T) {
	canceled := false
	meter := simtime.NewMeter()
	meter.SetCheckpoint(func(int64, int64) bool { return canceled })
	e := NewEngine(searchFixture(t), Config{Meter: meter, EnableCache: true})
	ref := dex.NewMethodRef("com.connectsdk.service.netcast.NetcastHttpServer", "start", dex.Void)
	if _, err := e.FindInvocations(ref); err != nil {
		t.Fatal(err)
	}
	canceled = true
	// Latch the meter (the poll only runs at a charge checkpoint).
	for meter.Charge(1) == nil {
	}
	before := e.Stats().Commands
	if _, err := e.FindInvocations(ref); err != simtime.ErrCanceled {
		t.Fatalf("lookup on a canceled meter = %v, want ErrCanceled", err)
	}
	if e.Stats().Commands != before {
		t.Error("a canceled engine must not count (or serve) further commands")
	}
}

// TestIndexHookAccounting pins the Config.Index seam: the first command
// calls it once and its Cost flags feed the index statistics, and a hook
// error fails that command and leaves the next command to call the hook
// again.
func TestIndexHookAccounting(t *testing.T) {
	text := searchFixture(t)
	calls := 0
	fail := true
	e := NewEngine(text, Config{Meter: simtime.NewMeter(), Index: func() (*dexdump.Index, Cost, error) {
		calls++
		if fail {
			return nil, Cost{IndexCacheMiss: true}, simtime.ErrTimeout
		}
		return dexdump.BuildIndex(text), Cost{IndexLoaded: true}, nil
	}})
	if _, err := e.FindConstClass("com.connectsdk.service.netcast.NetcastHttpServer"); err != simtime.ErrTimeout {
		t.Fatalf("hook error = %v, want it returned", err)
	}
	fail = false
	for i := 0; i < 2; i++ {
		if _, err := e.FindConstClass("com.connectsdk.service.netcast.NetcastHttpServer"); err != nil {
			t.Fatal(err)
		}
	}
	st := e.Stats()
	if calls != 2 || st.IndexCacheMisses != 1 || st.IndexCacheHits != 1 || st.IndexBuilds != 0 {
		t.Errorf("%d hook calls, stats %+v; want 2 calls, 1 miss, 1 hit, 0 builds", calls, st)
	}
}
