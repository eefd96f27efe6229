package testapps

import (
	"bytes"
	_ "embed"
)

//go:embed testdata/fixture.v3.bdx
var fixtureV3Bundle []byte

// FixtureV3Bundle returns the bundle that codec version 3 of
// dexdump.EncodeBundle wrote for the Fixture app: its dump, index and
// manifest, with the FNV-64a dump hash and span fingerprints that version
// 4 replaced by CRC content sums, stamped with the Fixture app's
// fingerprint. The layout of the two versions is the same, so the file
// is a faithful stale bundle for tests of the version gate. Each call
// returns a fresh copy.
func FixtureV3Bundle() []byte { return bytes.Clone(fixtureV3Bundle) }
