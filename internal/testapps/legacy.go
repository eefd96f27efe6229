package testapps

import (
	"bytes"
	_ "embed"
)

var (
	//go:embed testdata/fixture.v3.bdx
	fixtureV3Bundle []byte
	//go:embed testdata/fixture.v4.bdx
	fixtureV4Bundle []byte
	//go:embed testdata/fixture.v5.bdx
	fixtureV5Bundle []byte
)

// FixtureV3Bundle returns the bundle that codec version 3 of
// dexdump.EncodeBundle wrote for the Fixture app: its dump, index and
// manifest, with the FNV-64a dump hash and span fingerprints that version
// 4 replaced by CRC content sums, stamped with the Fixture app's
// fingerprint. The layout of versions 3 and 4 is the same, so the file
// is a faithful stale bundle for tests of the version gate. Each call
// returns a fresh copy.
func FixtureV3Bundle() []byte { return bytes.Clone(fixtureV3Bundle) }

// FixtureV4Bundle returns the bundle that codec version 4 of
// dexdump.EncodeBundle wrote for the Fixture app: the layout of version 3
// with CRC content sums, whose index section holds nine postings maps and
// whose header and manifest carry the fixed layout fields that version 5
// dropped. Each call returns a fresh copy.
func FixtureV4Bundle() []byte { return bytes.Clone(fixtureV4Bundle) }

// FixtureV5Bundle returns the bundle that codec version 5 of
// dexdump.EncodeBundle wrote for the Fixture app: the header and section
// framing of version 6, but an index section of seven key-by-key postings
// maps and a dump section with one method varint per line and no line
// table, which version 6 replaced. Each call returns a fresh copy.
func FixtureV5Bundle() []byte { return bytes.Clone(fixtureV5Bundle) }
