package bcsearch

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"backdroid/internal/dex"
	"backdroid/internal/dexdump"
	"backdroid/internal/simtime"
)

func cacheConfig(meter *simtime.Meter, path string, backend BackendKind) Config {
	return Config{Meter: meter, Backend: backend, CachePath: path}
}

// runFixtureQueries drives a representative command mix through an engine
// and returns the concatenated hits.
func runFixtureQueries(t *testing.T, e *Engine) []Hit {
	t.Helper()
	ref := dex.NewMethodRef("com.connectsdk.service.netcast.NetcastHttpServer", "start", dex.Void)
	var all []Hit
	for _, run := range []func() ([]Hit, error){
		func() ([]Hit, error) { return e.FindInvocations(ref) },
		func() ([]Hit, error) { return e.FindNewInstance("com.connectsdk.service.netcast.NetcastHttpServer") },
		func() ([]Hit, error) { return e.FindClassUses("com.connectsdk.service.netcast.NetcastHttpServer") },
		func() ([]Hit, error) { return e.FindInvocationsOfNamePrefix("start") },
	} {
		hits, err := run()
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, hits...)
	}
	return all
}

// TestPersistentCacheWarmRun pins the acceptance criterion of the
// persistent cache: a cold run tokenizes and writes the cache file, a
// warm run over the same dump loads it — zero index builds, zero
// tokenization charge — and returns identical hits for strictly less
// simulated work.
func TestPersistentCacheWarmRun(t *testing.T) {
	for _, backend := range []BackendKind{BackendIndexed, BackendSharded} {
		t.Run(backend.String(), func(t *testing.T) {
			text := searchFixture(t)
			path := dexdump.CachePath(t.TempDir(), "fixture.app")

			coldMeter := simtime.NewMeter()
			cold := NewEngine(text, cacheConfig(coldMeter, path, backend))
			coldHits := runFixtureQueries(t, cold)
			cs := cold.Stats()
			if cs.IndexBuilds != 1 || cs.IndexCacheHits != 0 || cs.IndexCacheMisses != 1 {
				t.Fatalf("cold run stats = %+v, want 1 build / 0 hits / 1 miss", cs)
			}
			if _, err := os.Stat(path); err != nil {
				t.Fatalf("cold run did not write the cache file: %v", err)
			}

			warmMeter := simtime.NewMeter()
			warm := NewEngine(text, cacheConfig(warmMeter, path, backend))
			warmHits := runFixtureQueries(t, warm)
			ws := warm.Stats()
			if ws.IndexBuilds != 0 {
				t.Errorf("warm run built the index %d times, want 0 (tokenization must be skipped)", ws.IndexBuilds)
			}
			if ws.IndexCacheHits != 1 || ws.IndexCacheMisses != 0 {
				t.Errorf("warm run cache stats = %+v, want 1 hit / 0 misses", ws)
			}
			if !hitsEqual(coldHits, warmHits) {
				t.Errorf("warm hits differ from cold hits: %v vs %v", summarize(warmHits), summarize(coldHits))
			}
			if warmMeter.Units() >= coldMeter.Units() {
				t.Errorf("warm run charged %d units, cold %d — cache load must be cheaper than tokenization",
					warmMeter.Units(), coldMeter.Units())
			}
			if ws.ShardCount != cs.ShardCount {
				t.Errorf("warm shard count = %d, cold = %d", ws.ShardCount, cs.ShardCount)
			}
		})
	}
}

// TestPersistentCacheInvalidation pins the rebuild-on-invalid behavior:
// truncated files, corrupted payloads, stale content hashes, codec
// version bumps and retired versions all fall back to a clean rebuild —
// silently, with identical search results — and repair the file on disk
// at the current codec version.
func TestPersistentCacheInvalidation(t *testing.T) {
	text := searchFixture(t)
	dir := t.TempDir()

	// Reference: an uncached engine.
	wantHits := runFixtureQueries(t, NewEngine(text, Config{Backend: BackendSharded}))

	// Seed one valid cache file to derive corruptions from.
	seedPath := dexdump.CachePath(dir, "seed")
	seed := NewEngine(text, cacheConfig(simtime.NewMeter(), seedPath, BackendSharded))
	runFixtureQueries(t, seed)
	good, err := os.ReadFile(seedPath)
	if err != nil {
		t.Fatal(err)
	}

	staleHash := append([]byte(nil), good...)
	staleHash[9] ^= 0xff
	versionBump := append([]byte(nil), good...)
	binary.LittleEndian.PutUint16(versionBump[4:6], dexdump.CodecVersion+1)
	legacyV2 := append([]byte(nil), good...)
	binary.LittleEndian.PutUint16(legacyV2[4:6], 2)
	// The index payload starts right after the 28-byte header; flip and
	// truncate inside it (damage past it lands in the dump section, which
	// by design does not invalidate the index — see
	// TestPersistentCacheDumpSectionDamage).
	payloadFlip := append([]byte(nil), good...)
	payloadFlip[40] ^= 0x01

	cases := map[string][]byte{
		"truncated":    good[:40],
		"empty":        {},
		"garbage":      []byte("not a cache file at all"),
		"stale-hash":   staleHash,
		"version-bump": versionBump,
		"legacy-v2":    legacyV2,
		"payload-flip": payloadFlip,
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			path := dexdump.CachePath(dir, name)
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			e := NewEngine(text, cacheConfig(simtime.NewMeter(), path, BackendSharded))
			hits := runFixtureQueries(t, e)
			st := e.Stats()
			if st.IndexBuilds != 1 || st.IndexCacheHits != 0 || st.IndexCacheMisses != 1 {
				t.Errorf("stats = %+v, want silent rebuild (1 build / 0 hits / 1 miss)", st)
			}
			if !hitsEqual(hits, wantHits) {
				t.Errorf("rebuild after %s cache returned different hits", name)
			}
			// The invalid file was repaired: it carries the current codec
			// version and a fresh engine now loads it.
			repaired, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if len(repaired) < 6 || binary.LittleEndian.Uint16(repaired[4:6]) != dexdump.CodecVersion {
				t.Errorf("repaired file after %s is not at codec version %d", name, dexdump.CodecVersion)
			}
			again := NewEngine(text, cacheConfig(simtime.NewMeter(), path, BackendSharded))
			runFixtureQueries(t, again)
			if st := again.Stats(); st.IndexCacheHits != 1 || st.IndexBuilds != 0 {
				t.Errorf("cache file not repaired after %s: %+v", name, st)
			}
		})
	}
}

// TestPersistentCacheDumpSectionDamage pins the section isolation of the
// bundle: damage confined to the dump section leaves the index section
// loadable — the searcher still reports an index cache hit with identical
// hits, since dump validation is the engine's concern, not the
// searcher's.
func TestPersistentCacheDumpSectionDamage(t *testing.T) {
	text := searchFixture(t)
	path := dexdump.CachePath(t.TempDir(), "app")
	seed := NewEngine(text, cacheConfig(simtime.NewMeter(), path, BackendSharded))
	wantHits := runFixtureQueries(t, seed)
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)-1] ^= 0x01 // inside the dump payload
	if err := os.WriteFile(path, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	e := NewEngine(text, cacheConfig(simtime.NewMeter(), path, BackendSharded))
	hits := runFixtureQueries(t, e)
	if st := e.Stats(); st.IndexCacheHits != 1 || st.IndexBuilds != 0 {
		t.Errorf("stats = %+v, want an index cache hit despite dump damage", st)
	}
	if !hitsEqual(hits, wantHits) {
		t.Error("dump-section damage changed index search results")
	}
}

// TestPersistentCacheUnwritableDir pins the best-effort write: an engine
// pointed at an unwritable cache location still analyzes correctly.
func TestPersistentCacheUnwritableDir(t *testing.T) {
	text := searchFixture(t)
	path := filepath.Join(t.TempDir(), "file-not-dir")
	if err := os.WriteFile(path, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	// CachePath nests under an existing *file*, so MkdirAll/write fail.
	e := NewEngine(text, cacheConfig(simtime.NewMeter(), filepath.Join(path, "app.bdx"), BackendIndexed))
	hits := runFixtureQueries(t, e)
	want := runFixtureQueries(t, NewEngine(text, Config{Backend: BackendIndexed}))
	if !hitsEqual(hits, want) {
		t.Error("unwritable cache dir changed search results")
	}
	if st := e.Stats(); st.IndexBuilds != 1 {
		t.Errorf("stats = %+v, want one in-memory build", st)
	}
}

// TestPersistentCacheLayoutMismatch pins the config-consistency rule: a
// cache file written under one shard layout must not be loaded by a
// searcher configured for another, or an explicit -shards override (or
// an unsharded ablation) would silently inherit a stale layout and skew
// charged work. The mismatching engine rebuilds with its own layout and
// repairs the file.
func TestPersistentCacheLayoutMismatch(t *testing.T) {
	text := searchFixture(t)
	path := dexdump.CachePath(t.TempDir(), "app")

	// Seed the cache with a 4-shard layout.
	seed := NewEngine(text, Config{
		Meter: simtime.NewMeter(), Backend: BackendSharded,
		Plan: dexdump.PackagePrefixPlan(text, 4), CachePath: path,
	})
	runFixtureQueries(t, seed)
	if st := seed.Stats(); st.ShardCount != 4 {
		t.Fatalf("seed shard count = %d, want 4", st.ShardCount)
	}

	// An unsharded engine must not load the 4-shard file.
	indexed := NewEngine(text, cacheConfig(simtime.NewMeter(), path, BackendIndexed))
	runFixtureQueries(t, indexed)
	if st := indexed.Stats(); st.IndexBuilds != 1 || st.IndexCacheHits != 0 || st.ShardCount != 1 {
		t.Errorf("indexed engine loaded a sharded cache: %+v", st)
	}

	// A different shard count must not load the (now 1-shard) file either.
	two := NewEngine(text, Config{
		Meter: simtime.NewMeter(), Backend: BackendSharded,
		Plan: dexdump.PackagePrefixPlan(text, 2), CachePath: path,
	})
	runFixtureQueries(t, two)
	if st := two.Stats(); st.IndexBuilds != 1 || st.IndexCacheHits != 0 || st.ShardCount != 2 {
		t.Errorf("2-shard engine loaded a mismatched cache: %+v", st)
	}

	// Matching layout now hits the repaired file.
	again := NewEngine(text, Config{
		Meter: simtime.NewMeter(), Backend: BackendSharded,
		Plan: dexdump.PackagePrefixPlan(text, 2), CachePath: path,
	})
	runFixtureQueries(t, again)
	if st := again.Stats(); st.IndexCacheHits != 1 || st.IndexBuilds != 0 {
		t.Errorf("matching layout did not reuse the cache: %+v", st)
	}
}
