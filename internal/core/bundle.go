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
// cold), dropping a bad store entry, the lazy index acquisition behind
// bcsearch.Config.Index and the single encode that feeds both the disk
// file and the store. A probed bundle is accepted whole or not at all:
// one that fails dexdump.ReadBundle or (*dexdump.Bundle).Dump is a miss
// for both the dump and the index, and publish rewrites it.
type bundle struct {
	store BundleCache // Options.Bundles; nil disables the store tier
	path  string      // bundle file under Options.IndexCacheDir; "" disables the disk tier
	fp    uint64      // app fingerprint; 0 when neither tier is configured

	read      *dexdump.Bundle // the accepted bundle; nil on a miss
	dump      *dexdump.Text   // its decoded dump section
	fromStore bool            // read is a store entry
	probed    bool            // a bundle was probed, so a miss is counted
}

// openBundle probes the configured tiers in order, before any merge or
// disassembly work: the store first — a hit costs zero disk I/O — then the
// disk file, read once. A store entry that is not accepted (damaged, or
// written for different bytecode) is dropped, since a Put for a present
// fingerprint is a no-op refresh that would pin the bad entry, and the
// probe falls through to the disk tier.
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
			if b.accept(data) {
				b.fromStore = true
				return b
			}
			b.store.DropBundle(b.fp)
		}
	}
	if b.path != "" {
		// A missing or unreadable file is a miss like a damaged one; the
		// cold path rewrites it.
		data, _ := os.ReadFile(b.path)
		b.accept(data)
	}
	return b
}

// accept probes one tier's bytes: the bundle must read whole and its
// dump section must validate for this app.
func (b *bundle) accept(data []byte) bool {
	b.probed = true
	if r, err := dexdump.ReadBundle(data); err == nil {
		if b.dump, _ = r.Dump(b.fp); b.dump != nil {
			b.read = r
		}
	}
	return b.read != nil
}

// storeCounts returns the BundleStoreHits/Misses pair: one store probe
// per engine with a store, a hit only when the entry was accepted.
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
// per engine, both zero when no bundle was probed.
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
// indexable command (inside locate-sinks). An accepted bundle's index
// section decodes from the bytes already in hand, charged at the cheap
// cache-load rate, and a disk bundle is then shared with the store as
// read. Otherwise — a miss, or an index section that does not validate —
// it charges the index build at the plain or delta rate, builds the index
// or takes it from Options.Shared, and publishes a fresh bundle.
func (e *Engine) index() (*dexdump.Index, bcsearch.Cost, error) {
	b := e.bundle
	var cost bcsearch.Cost
	if b.read != nil {
		if x, err := b.read.Index(e.dump); err == nil {
			if err := e.meter.ChargeIndexCacheLoad(e.dump.LineCount()); err != nil {
				return nil, cost, err
			}
			cost.IndexLoaded = true
			if !b.fromStore && b.store != nil {
				b.store.PutBundle(b.fp, b.read.Bytes())
			}
			return x, cost, nil
		}
	}
	cost.IndexCacheMiss = b.probed
	if err := e.chargeIndexBuild(); err != nil {
		return nil, cost, err
	}
	x := e.opts.Shared.indexOver(e.dump)
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
