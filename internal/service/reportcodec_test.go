package service

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"reflect"
	"testing"

	"backdroid/internal/android"
	"backdroid/internal/core"
	"backdroid/internal/dex"
)

// codecTestReport hand-builds a report exercising every encoded field:
// multiple sinks, method refs with parameters, entries, values and every
// flag combination the codec packs.
func codecTestReport() *core.Report {
	caller := dex.NewMethodRef("com.example.Main", "onCreate", dex.Void, dex.T("android.os.Bundle"))
	entry := dex.NewMethodRef("com.example.Main", "main", dex.Void)
	return &core.Report{
		App:        "com.example.codec",
		TimedOut:   false,
		Registered: []string{"Lcom/example/Main;", "Lcom/example/Recv;"},
		Sinks: []*core.SinkReport{
			{
				Call: core.SinkCall{
					Sink: android.Sink{
						Method:     android.CipherGetInstance,
						ParamIndex: 0,
						Rule:       android.RuleCryptoECB,
					},
					Caller:    caller,
					UnitIndex: 12,
					Line:      340,
				},
				Reachable: true,
				Insecure:  true,
				Entries:   []dex.MethodRef{entry, caller},
				Values:    []string{`"AES/ECB/PKCS5Padding"`, "<unknown>"},
			},
			{
				Call: core.SinkCall{
					Sink: android.Sink{
						Method:     android.CipherGetInstance,
						ParamIndex: 0,
						Rule:       android.RuleCryptoECB,
					},
					Caller:    entry,
					UnitIndex: 3,
					Line:      17,
				},
				Reachable: false,
				Cached:    true,
				Reused:    true,
				Values:    nil,
			},
		},
	}
}

// TestReportCodecRoundTrip pins the canonical encoding: decode inverts
// encode on the detection surface, and re-encoding the decoded report
// reproduces the exact bytes (the bitwise-identity property the settled
// tier is built on).
func TestReportCodecRoundTrip(t *testing.T) {
	r := codecTestReport()
	enc := EncodeReport(r)
	if !bytes.Equal(enc, EncodeReport(r)) {
		t.Fatal("EncodeReport not deterministic")
	}
	dec, err := DecodeReport(enc)
	if err != nil {
		t.Fatalf("DecodeReport: %v", err)
	}
	if !bytes.Equal(EncodeReport(dec), enc) {
		t.Fatal("re-encoding the decoded report changed the bytes")
	}
	if dec.App != r.App || dec.TimedOut != r.TimedOut ||
		!reflect.DeepEqual(dec.Registered, r.Registered) {
		t.Fatalf("decoded header = %q/%v/%v", dec.App, dec.TimedOut, dec.Registered)
	}
	if len(dec.Sinks) != len(r.Sinks) {
		t.Fatalf("decoded %d sinks, want %d", len(dec.Sinks), len(r.Sinks))
	}
	for i := range r.Sinks {
		want, got := r.Sinks[i], dec.Sinks[i]
		if got.Call.String() != want.Call.String() || got.Call.Line != want.Call.Line {
			t.Fatalf("sink %d call = %v line=%d, want %v line=%d",
				i, got.Call, got.Call.Line, want.Call, want.Call.Line)
		}
		if got.Reachable != want.Reachable || got.Insecure != want.Insecure ||
			got.Reused != want.Reused {
			t.Fatalf("sink %d flags = %+v, want %+v", i, got, want)
		}
		if got.Cached {
			// Cached is run-local (engine-run cache co-residency) and was
			// dropped from the encoding in codec v2; decode leaves it false.
			t.Fatalf("sink %d decoded Cached=true; v2 must not carry it", i)
		}
		if !reflect.DeepEqual(got.Entries, want.Entries) {
			t.Fatalf("sink %d entries = %v, want %v", i, got.Entries, want.Entries)
		}
		if len(got.Values) != len(want.Values) || !reflect.DeepEqual(append([]string{}, got.Values...), append([]string{}, want.Values...)) {
			t.Fatalf("sink %d values = %v, want %v", i, got.Values, want.Values)
		}
	}
}

// TestReportCodecExcludesStats pins the identity property directly: two
// reports equal on the detection surface but with wildly different Stats
// encode to the same bytes — a cold run and its settled replay are
// indistinguishable in canonical form.
func TestReportCodecExcludesStats(t *testing.T) {
	a := codecTestReport()
	b := codecTestReport()
	b.Stats = core.Stats{WorkUnits: 123456, SettledLookups: 1, MethodsAnalyzed: 42}
	if !bytes.Equal(EncodeReport(a), EncodeReport(b)) {
		t.Fatal("Stats leaked into the canonical encoding")
	}
}

// TestReportCodecExcludesCached pins the v2 change the chunk merge
// depends on: whether a sink hit the engine-run-local reachability
// cache depends on which sinks shared that run, so a chunked and a
// single-pass analysis legitimately differ on Cached — the canonical
// encoding must not see it.
func TestReportCodecExcludesCached(t *testing.T) {
	a := codecTestReport()
	b := codecTestReport()
	for _, s := range b.Sinks {
		s.Cached = !s.Cached
	}
	if !bytes.Equal(EncodeReport(a), EncodeReport(b)) {
		t.Fatal("Cached leaked into the canonical encoding")
	}
}

// TestReportCodecTimedOutDistinct pins that the timeout verdict is part
// of the surface: a truncated run must not alias a complete one.
func TestReportCodecTimedOutDistinct(t *testing.T) {
	a := codecTestReport()
	b := codecTestReport()
	b.TimedOut = true
	if bytes.Equal(EncodeReport(a), EncodeReport(b)) {
		t.Fatal("TimedOut not encoded")
	}
	dec, err := DecodeReport(EncodeReport(b))
	if err != nil || !dec.TimedOut {
		t.Fatalf("decoded TimedOut = %v (err %v), want true", dec != nil && dec.TimedOut, err)
	}
}

// TestReportCodecCorruptionFuzz mirrors the journal fuzz: every
// single-byte flip and every truncation of a valid encoding must decode
// as an error — a damaged settled entry degrades to a store miss, never
// to a wrong report or a panic.
func TestReportCodecCorruptionFuzz(t *testing.T) {
	good := EncodeReport(codecTestReport())
	check := func(name string, data []byte) {
		t.Helper()
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("%s: DecodeReport panicked: %v", name, r)
			}
		}()
		if _, err := DecodeReport(data); err == nil {
			t.Fatalf("%s: damaged encoding decoded cleanly", name)
		}
	}
	for off := 0; off < len(good); off++ {
		data := append([]byte(nil), good...)
		data[off] ^= 0xa5
		check("flip", data)
	}
	for cut := 0; cut < len(good); cut++ {
		check("truncate", good[:cut])
	}
	check("trailing", append(append([]byte(nil), good...), 0x00))
	check("empty", nil)
}

// TestReportCodecVersionGate pins that a future layout bump reads as a
// miss, not as garbage: flipping the version field must fail the decode
// even with a fixed-up CRC.
func TestReportCodecVersionGate(t *testing.T) {
	r := &core.Report{App: "v"}
	enc := EncodeReport(r)
	// Rebuild with a bumped version and a valid CRC over the new body.
	body := append([]byte(nil), enc[4:len(enc)-4]...)
	body[0]++ // version low byte
	forged := append([]byte(reportMagic), body...)
	forged = putU32(forged, crc32.ChecksumIEEE(body))
	if _, err := DecodeReport(forged); err == nil {
		t.Fatal("unknown codec version decoded cleanly")
	}
}

// reseal returns a copy of a settled-report encoding with its trailing
// CRC recomputed over the (possibly edited) body, so edits reach the
// payload decoder instead of stopping at the checksum.
func reseal(data []byte) []byte {
	out := append([]byte(nil), data...)
	if len(out) >= len(reportMagic)+4 {
		binary.LittleEndian.PutUint32(out[len(out)-4:], crc32.ChecksumIEEE(out[len(reportMagic):len(out)-4]))
	}
	return out
}

// TestReportCodecRejectsNonCanonicalBytes pins that only canonical bytes
// decode: a TimedOut byte other than 0 or 1, or a sink flag byte with a
// bit outside reachable, insecure and reused (the retired cached bit
// included), fails the decode even under a valid CRC — such bytes would
// re-encode differently, and the settled tier keeps recovered journal
// bytes as an entry's encoded form.
func TestReportCodecRejectsNonCanonicalBytes(t *testing.T) {
	r := codecTestReport()
	good := EncodeReport(r)

	// Offsets of the TimedOut byte and the first sink's flag byte,
	// rebuilt with the encoder's own helpers.
	at := len(reportMagic) + 2
	p := putStr(nil, r.App)
	timedOut := at + len(p)
	p = putU32(append(p, 0), uint32(len(r.Registered)))
	for _, reg := range r.Registered {
		p = putStr(p, reg)
	}
	p = putU32(p, uint32(len(r.Sinks)))
	s := r.Sinks[0]
	p = putU32(encodeMethodRef(p, s.Call.Sink.Method), 0)
	p = putU32(putU32(encodeMethodRef(append(p, 0), s.Call.Caller), 0), 0)
	flags := at + len(p)
	if good[timedOut] != 0 || good[flags] != sinkReachable|sinkInsecure {
		t.Fatalf("offsets wrong: TimedOut byte %#x, flag byte %#x", good[timedOut], good[flags])
	}

	edit := func(off int, b byte) []byte {
		data := append([]byte(nil), good...)
		data[off] = b
		return reseal(data)
	}
	if dec, err := DecodeReport(edit(timedOut, 1)); err != nil || !dec.TimedOut {
		t.Fatalf("canonical TimedOut=1 rejected: %v", err)
	}
	cases := map[string][]byte{
		"timed-out 2":         edit(timedOut, 2),
		"timed-out 0xff":      edit(timedOut, 0xff),
		"retired cached bit":  edit(flags, good[flags]|1<<2),
		"unknown bit 4":       edit(flags, good[flags]|1<<4),
		"unknown high bit":    edit(flags, good[flags]|1<<7),
		"only an unknown bit": edit(flags, 1<<5),
	}
	for name, data := range cases {
		if _, err := DecodeReport(data); err == nil {
			t.Errorf("%s: non-canonical encoding decoded", name)
		}
	}
}

// FuzzDecodeReport feeds arbitrary bytes to the settled-report decoder,
// each input raw and with its trailing CRC resealed. Decoding must never
// panic, and a report that decodes must re-encode to exactly its input.
// The small second seed puts the TimedOut byte within easy reach of the
// byte mutators.
func FuzzDecodeReport(f *testing.F) {
	f.Add(EncodeReport(codecTestReport()))
	f.Add(EncodeReport(&core.Report{App: "a", TimedOut: true}))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, reseal(data)} {
			r, err := DecodeReport(in)
			if err != nil {
				continue
			}
			if got := EncodeReport(r); !bytes.Equal(got, in) {
				t.Fatalf("decoded report re-encodes to %x, input was %x", got, in)
			}
		}
	})
}
