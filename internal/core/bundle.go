package core

import (
	"os"

	"backdroid/internal/apk"
	"backdroid/internal/bcsearch"
	"backdroid/internal/dexdump"
)

// bundle is one engine's warm-start bundle (DESIGN.md Sec. 3): where it
// was probed, what validated, and where a fresh encode goes. Every bundle
// decision lives in this file — the probe order (store, then disk, then
// cold), dump validation and dropping a bad store entry, the lazy index
// acquisition behind bcsearch.Config.Index, the self-heal rewrite and the
// single encode that feeds both the disk file and the store.
type bundle struct {
	store BundleCache // Options.Bundles; nil disables the store tier
	path  string      // bundle file under Options.IndexCacheDir; "" disables the disk tier
	fp    uint64      // app fingerprint; 0 when neither tier is configured

	// data is the probed bundle whose index section the first indexable
	// command decodes: the store entry when its dump validated, otherwise
	// the disk file's content (nil when unreadable).
	data      []byte
	dump      *dexdump.Text // decoded dump section; nil on a miss
	fromStore bool          // data is a validated store entry
	probed    bool          // a dump section was probed, so a miss is counted
}

// openBundle probes the configured tiers in order, before any merge or
// disassembly work: the store first — a hit costs zero disk I/O — then the
// disk file, read once. A store entry whose dump section does not validate
// (damaged, or written for different bytecode) is dropped, since a Put for
// a present fingerprint is a no-op refresh that would pin the bad entry,
// and the probe falls through to the disk tier.
func openBundle(app *apk.App, opts Options) *bundle {
	b := &bundle{store: opts.Bundles}
	if opts.IndexCacheDir != "" {
		b.path = dexdump.CachePath(opts.IndexCacheDir, app.Name)
	}
	if b.store == nil && b.path == "" {
		return b
	}
	b.fp = app.Fingerprint()
	if b.store != nil {
		if data, ok := b.store.GetBundle(b.fp); ok {
			b.probed = true
			if t, err := dexdump.DecodeBundleDump(data, b.fp); err == nil {
				b.data, b.dump, b.fromStore = data, t, true
				return b
			}
			b.store.DropBundle(b.fp)
		}
	}
	if b.path != "" {
		b.probed = true
		// A missing or unreadable file is a miss like a damaged one; the
		// cold path rewrites it.
		b.data, _ = os.ReadFile(b.path)
		if t, err := dexdump.DecodeBundleDump(b.data, b.fp); err == nil {
			b.dump = t
		}
	}
	return b
}

// storeCounts returns the BundleStoreHits/Misses pair: one store probe
// per engine with a store, a hit only when the entry's dump validated.
func (b *bundle) storeCounts() (hits, misses int) {
	switch {
	case b.store == nil:
		return 0, 0
	case b.fromStore:
		return 1, 0
	}
	return 0, 1
}

// dumpCounts returns the DumpCacheHits/Misses pair: at most one of each
// per engine, both zero when no dump section was probed.
func (b *bundle) dumpCounts() (hits, misses int) {
	switch {
	case b.dump != nil:
		return 1, 0
	case b.probed:
		return 0, 1
	}
	return 0, 0
}

// index is the engine's bcsearch.Config.Index hook, called on the first
// indexable command (inside locate-sinks). With a probed bundle it decodes
// the index section from the bytes already in hand, charged at the cheap
// cache-load rate; any invalid section is a silent miss. Otherwise, or on
// a miss, it builds the index at the plain or delta rate. A loaded index
// whose dump section missed rewrites the bundle (self-heal), a loaded
// disk bundle is shared with the store as-is, and a built index is
// encoded once for both tiers.
func (e *Engine) index() (*dexdump.Index, bcsearch.Cost, error) {
	b := e.bundle
	var cost bcsearch.Cost
	if b.path != "" || len(b.data) != 0 {
		if x, err := dexdump.DecodeIndexFile(b.data, e.dump); err == nil {
			if err := e.meter.ChargeIndexCacheLoad(e.dump.LineCount()); err != nil {
				return nil, cost, err
			}
			cost.IndexLoaded = true
			if b.dump == nil {
				// Only disk bytes survive a dump miss: heal the file so the
				// next run skips disassembly too.
				e.publish(x)
			} else if !b.fromStore && b.store != nil && b.fp != 0 {
				b.store.PutBundle(b.fp, b.data)
			}
			return x, cost, nil
		}
		cost.IndexCacheMiss = true
	}
	if err := e.chargeIndexBuild(); err != nil {
		return nil, cost, err
	}
	x := dexdump.BuildIndex(e.dump)
	cost.IndexBuilt = true
	e.publish(x)
	return x, cost, nil
}

// chargeIndexBuild charges the one-time index build. Two models charge
// the same real work differently: the plain build tokenizes every dump
// line; the delta build tokenizes only the changed and added classes'
// lines at the build rate and carries the unchanged classes over at the
// delta-reuse rate — the base version's bundle already tokenized them,
// and the manifest diff proved them identical. The built index is
// bitwise identical under both models.
func (e *Engine) chargeIndexBuild() error {
	if e.deltaDiff == nil {
		return e.meter.ChargeIndexBuild(e.dump.LineCount())
	}
	if err := e.meter.ChargeIndexBuild(e.deltaDumpLines); err != nil {
		return err
	}
	return e.meter.ChargeDeltaReuse(e.dump.LineCount() - e.deltaDumpLines)
}

// publish encodes the dump and index once and hands the bytes to every
// configured tier: the disk file and the store. A store entry whose index
// section failed is replaced. Best-effort — a failed encode or write never
// fails the analysis.
func (e *Engine) publish(x *dexdump.Index) {
	b := e.bundle
	toStore := b.store != nil && b.fp != 0
	if b.path == "" && !toStore {
		return
	}
	data, err := dexdump.EncodeBundle(e.dump, x, b.fp, e.deltaNewMan)
	if err != nil {
		return
	}
	if b.path != "" {
		_ = dexdump.WriteBundleBytes(b.path, data)
	}
	if toStore {
		if b.fromStore {
			b.store.DropBundle(b.fp)
		}
		b.store.PutBundle(b.fp, data)
	}
}
