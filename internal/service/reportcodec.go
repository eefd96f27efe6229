// Report serialization for the settled-result tier. A terminal
// core.Report is encoded into a canonical, versioned byte form — the
// content the ReportStore addresses, the journal persists and the
// benchgate settled-storm leg compares bitwise. The encoding is
// deterministic by construction: fields are written in a fixed order
// with length prefixes and no maps, so two reports with equal detection
// surfaces encode to identical bytes regardless of which run produced
// them.
//
// Deliberately excluded from the encoding:
//
//   - Stats: charged work, wall time and cache counters vary run to run
//     (a cold run and a settled replay of the same verdicts must encode
//     identically — that equality is the store's correctness check);
//   - SinkReport.SSG and SinkReport.Footprint: analysis-internal graphs
//     that no read path consumes. A report decoded from bytes therefore
//     has no footprints; the scheduler only seeds the delta path with a
//     decoded report when it has nothing better, and the delta guards
//     already treat footprint-less sinks as must-rerun.
//
// The layout is magic "BDRS" + u16 version + payload + trailing CRC-32
// over everything after the magic. Decode failures are errors (callers
// treat a damaged entry as a miss), never panics.
package service

import (
	"encoding/binary"
	"errors"
	"hash/crc32"

	"backdroid/internal/android"
	"backdroid/internal/core"
	"backdroid/internal/dex"
)

// ReportCodecVersion is the settled-report encoding version. Bump it
// whenever the layout changes; stored entries of other versions decode
// as errors, which every read path treats as a store miss.
//
// v2 dropped the sinkCached flag from the encoding: Cached records
// whether a sink hit the engine-run-local reachability cache, which
// depends on which sinks co-resided in one engine run — a chunked run
// and a single-pass run legitimately differ there, and the settled
// encoding must stay bitwise-identical across every chunking.
const ReportCodecVersion = 2

const reportMagic = "BDRS"

var errReportCodec = errors.New("service: undecodable settled report")

// EncodeReport renders the report's deterministic detection surface in
// the canonical settled-report byte form.
func EncodeReport(r *core.Report) []byte {
	var p []byte
	p = putStr(p, r.App)
	if r.TimedOut {
		p = append(p, 1)
	} else {
		p = append(p, 0)
	}
	p = putU32(p, uint32(len(r.Registered)))
	for _, reg := range r.Registered {
		p = putStr(p, reg)
	}
	p = putU32(p, uint32(len(r.Sinks)))
	for _, s := range r.Sinks {
		p = encodeSink(p, s)
	}

	out := make([]byte, 0, len(reportMagic)+2+len(p)+4)
	out = append(out, reportMagic...)
	out = putU16(out, ReportCodecVersion)
	out = append(out, p...)
	return putU32(out, crc32.ChecksumIEEE(out[len(reportMagic):]))
}

// DecodeReport parses canonical settled-report bytes back into a
// core.Report. The decoded report carries no Stats, no SSGs and no
// footprints — only the detection surface EncodeReport captured.
func DecodeReport(data []byte) (*core.Report, error) {
	if len(data) < len(reportMagic)+2+4 || string(data[:4]) != reportMagic {
		return nil, errReportCodec
	}
	body, tail := data[4:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(tail) {
		return nil, errReportCodec
	}
	ver, p, ok := getU16(body)
	if !ok || ver != ReportCodecVersion {
		return nil, errReportCodec
	}
	r := &core.Report{}
	if r.App, p, ok = getStr(p); !ok {
		return nil, errReportCodec
	}
	var b byte
	if b, p, ok = getByte(p); !ok {
		return nil, errReportCodec
	}
	r.TimedOut = b != 0
	var n uint32
	if n, p, ok = getU32(p); !ok || int64(n) > int64(len(p)) {
		return nil, errReportCodec
	}
	for i := uint32(0); i < n; i++ {
		var reg string
		if reg, p, ok = getStr(p); !ok {
			return nil, errReportCodec
		}
		r.Registered = append(r.Registered, reg)
	}
	if n, p, ok = getU32(p); !ok || int64(n) > int64(len(p)) {
		return nil, errReportCodec
	}
	for i := uint32(0); i < n; i++ {
		var s *core.SinkReport
		if s, p, ok = decodeSink(p); !ok {
			return nil, errReportCodec
		}
		r.Sinks = append(r.Sinks, s)
	}
	if len(p) != 0 {
		return nil, errReportCodec
	}
	return r, nil
}

// sink flag bits. sinkCached's bit position is retired as of codec v2
// (kept reserved so sinkReused keeps its v1 value).
const (
	sinkReachable = 1 << iota
	sinkInsecure
	_ // formerly sinkCached; run-local, dropped in v2
	sinkReused
)

func encodeSink(p []byte, s *core.SinkReport) []byte {
	p = encodeMethodRef(p, s.Call.Sink.Method)
	p = putU32(p, uint32(s.Call.Sink.ParamIndex))
	p = append(p, byte(s.Call.Sink.Rule))
	p = encodeMethodRef(p, s.Call.Caller)
	p = putU32(p, uint32(s.Call.UnitIndex))
	p = putU32(p, uint32(s.Call.Line))
	var flags byte
	if s.Reachable {
		flags |= sinkReachable
	}
	if s.Insecure {
		flags |= sinkInsecure
	}
	if s.Reused {
		flags |= sinkReused
	}
	p = append(p, flags)
	p = putU32(p, uint32(len(s.Entries)))
	for _, e := range s.Entries {
		p = encodeMethodRef(p, e)
	}
	p = putU32(p, uint32(len(s.Values)))
	for _, v := range s.Values {
		p = putStr(p, v)
	}
	return p
}

func decodeSink(p []byte) (*core.SinkReport, []byte, bool) {
	s := &core.SinkReport{}
	var ok bool
	if s.Call.Sink.Method, p, ok = decodeMethodRef(p); !ok {
		return nil, nil, false
	}
	var u uint32
	if u, p, ok = getU32(p); !ok {
		return nil, nil, false
	}
	s.Call.Sink.ParamIndex = int(u)
	var b byte
	if b, p, ok = getByte(p); !ok {
		return nil, nil, false
	}
	s.Call.Sink.Rule = android.RuleKind(b)
	if s.Call.Caller, p, ok = decodeMethodRef(p); !ok {
		return nil, nil, false
	}
	if u, p, ok = getU32(p); !ok {
		return nil, nil, false
	}
	s.Call.UnitIndex = int(u)
	if u, p, ok = getU32(p); !ok {
		return nil, nil, false
	}
	s.Call.Line = int(u)
	if b, p, ok = getByte(p); !ok {
		return nil, nil, false
	}
	s.Reachable = b&sinkReachable != 0
	s.Insecure = b&sinkInsecure != 0
	s.Reused = b&sinkReused != 0
	if u, p, ok = getU32(p); !ok || int64(u) > int64(len(p)) {
		return nil, nil, false
	}
	for i := uint32(0); i < u; i++ {
		var m dex.MethodRef
		if m, p, ok = decodeMethodRef(p); !ok {
			return nil, nil, false
		}
		s.Entries = append(s.Entries, m)
	}
	if u, p, ok = getU32(p); !ok || int64(u) > int64(len(p)) {
		return nil, nil, false
	}
	for i := uint32(0); i < u; i++ {
		var v string
		if v, p, ok = getStr(p); !ok {
			return nil, nil, false
		}
		s.Values = append(s.Values, v)
	}
	return s, p, true
}

func encodeMethodRef(p []byte, m dex.MethodRef) []byte {
	p = putStr(p, m.Class)
	p = putStr(p, m.Name)
	p = putStr(p, string(m.Ret))
	p = putU32(p, uint32(len(m.Params)))
	for _, t := range m.Params {
		p = putStr(p, string(t))
	}
	return p
}

func decodeMethodRef(p []byte) (dex.MethodRef, []byte, bool) {
	var m dex.MethodRef
	var s string
	var ok bool
	if m.Class, p, ok = getStr(p); !ok {
		return m, nil, false
	}
	if m.Name, p, ok = getStr(p); !ok {
		return m, nil, false
	}
	if s, p, ok = getStr(p); !ok {
		return m, nil, false
	}
	m.Ret = dex.TypeDesc(s)
	var n uint32
	if n, p, ok = getU32(p); !ok || int64(n) > int64(len(p)) {
		return m, nil, false
	}
	for i := uint32(0); i < n; i++ {
		if s, p, ok = getStr(p); !ok {
			return m, nil, false
		}
		m.Params = append(m.Params, dex.TypeDesc(s))
	}
	return m, p, true
}

func putU16(b []byte, v uint16) []byte {
	var n [2]byte
	binary.LittleEndian.PutUint16(n[:], v)
	return append(b, n[:]...)
}

func putU32(b []byte, v uint32) []byte {
	var n [4]byte
	binary.LittleEndian.PutUint32(n[:], v)
	return append(b, n[:]...)
}

func putStr(b []byte, s string) []byte {
	return append(putU32(b, uint32(len(s))), s...)
}

func getByte(p []byte) (byte, []byte, bool) {
	if len(p) < 1 {
		return 0, nil, false
	}
	return p[0], p[1:], true
}

func getU16(p []byte) (uint16, []byte, bool) {
	if len(p) < 2 {
		return 0, nil, false
	}
	return binary.LittleEndian.Uint16(p), p[2:], true
}

func getU32(p []byte) (uint32, []byte, bool) {
	if len(p) < 4 {
		return 0, nil, false
	}
	return binary.LittleEndian.Uint32(p), p[4:], true
}

func getStr(p []byte) (string, []byte, bool) {
	n, p, ok := getU32(p)
	if !ok || int64(n) > int64(len(p)) {
		return "", nil, false
	}
	return string(p[:n]), p[n:], true
}
