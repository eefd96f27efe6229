package dexdump

import (
	"encoding/binary"
	"fmt"
	"strings"

	"backdroid/internal/dex"
)

// The oracles of the two bundle payload decoders. Each reads the current
// layout the way the version 5 decoder read its own: the dump by
// splitting its text on newlines and copying every string, the index by
// copying every key into a map and decoding every list. FuzzDecodeDump
// and FuzzDecodeIndexFile require decodeDump and decodeIndex to accept
// exactly what these accept and to answer every query alike.

// oracleText is the dump as the line-splitting decoder held it: one
// string per line and an int per line's method.
type oracleText struct {
	lines        []string
	methodOfLine []int
	methods      []dex.MethodRef
	spans        []ClassSpan
	full         string
}

// decodeDumpOracle decodes a dump payload by splitting its text into
// lines. The stored line table must equal the line lengths that split
// finds, and the method runs are expanded into one method index per line.
func decodeDumpOracle(buf []byte) (*oracleText, error) {
	fullLen, buf, err := readUvarint(buf)
	if err != nil {
		return nil, err
	}
	if fullLen > uint64(len(buf)) {
		return nil, fmt.Errorf("full text claims %d bytes, %d remain", fullLen, len(buf))
	}
	t := &oracleText{full: string(buf[:fullLen])}
	buf = buf[fullLen:]
	if t.full != "" {
		if t.full[len(t.full)-1] != '\n' {
			return nil, fmt.Errorf("full text does not end in a newline")
		}
		t.lines = strings.Split(t.full[:len(t.full)-1], "\n")
	}

	count, buf, err := readUvarint(buf)
	if err != nil {
		return nil, err
	}
	if count != uint64(len(t.lines)) {
		return nil, fmt.Errorf("line table of %d entries for %d lines", count, len(t.lines))
	}
	for i, l := range t.lines {
		var length uint64
		if length, buf, err = readUvarint(buf); err != nil {
			return nil, err
		}
		if length != uint64(len(l)) {
			return nil, fmt.Errorf("line table entry %d is not the line's length", i)
		}
	}

	sectionLen, buf, err := readUvarint(buf)
	if err != nil {
		return nil, err
	}
	if sectionLen > uint64(len(buf)) {
		return nil, fmt.Errorf("string section claims %d bytes", sectionLen)
	}
	section := buf[:sectionLen]
	buf = buf[sectionLen:]
	str := func() (string, error) {
		var n uint64
		if n, buf, err = readUvarint(buf); err != nil {
			return "", err
		}
		if n > uint64(len(section)) {
			return "", fmt.Errorf("string overruns the section")
		}
		s := string(section[:n])
		section = section[n:]
		return s, nil
	}

	methodCount, buf, err := readUvarint(buf)
	if err != nil {
		return nil, err
	}
	paramCount, buf, err := readUvarint(buf)
	if err != nil {
		return nil, err
	}
	if methodCount > uint64(len(buf)) {
		return nil, fmt.Errorf("method table claims %d entries, %d bytes remain", methodCount, len(buf))
	}
	t.methods = make([]dex.MethodRef, methodCount)
	t.methodOfLine = make([]int, len(t.lines))
	for i := range t.methodOfLine {
		t.methodOfLine[i] = -1
	}
	params, end := uint64(0), uint64(0)
	for i := range t.methods {
		var m dex.MethodRef
		var ret string
		if m.Class, err = str(); err != nil {
			return nil, err
		}
		if m.Name, err = str(); err != nil {
			return nil, err
		}
		if ret, err = str(); err != nil {
			return nil, err
		}
		m.Ret = dex.TypeDesc(ret)
		var np uint64
		if np, buf, err = readUvarint(buf); err != nil {
			return nil, err
		}
		if np > uint64(len(buf)) {
			return nil, fmt.Errorf("method %d claims %d params", i, np)
		}
		params += np
		m.Params = make([]dex.TypeDesc, np)
		for j := range m.Params {
			var p string
			if p, err = str(); err != nil {
				return nil, err
			}
			m.Params[j] = dex.TypeDesc(p)
		}
		var gap, length uint64
		if gap, buf, err = readUvarint(buf); err != nil {
			return nil, err
		}
		if length, buf, err = readUvarint(buf); err != nil {
			return nil, err
		}
		lines := uint64(len(t.lines))
		if gap > lines || length > lines || end+gap+length > lines {
			return nil, fmt.Errorf("method %d's run overruns the dump", i)
		}
		for n := end + gap; n < end+gap+length; n++ {
			t.methodOfLine[n] = i
		}
		end += gap + length
		t.methods[i] = m
	}
	if params != paramCount {
		return nil, fmt.Errorf("methods hold %d params, header says %d", params, paramCount)
	}

	spanCount, buf, err := readUvarint(buf)
	if err != nil {
		return nil, err
	}
	if spanCount > uint64(len(t.lines))+1 {
		return nil, fmt.Errorf("%d class spans for a %d-line dump", spanCount, len(t.lines))
	}
	t.spans = make([]ClassSpan, spanCount)
	at := 0
	for i := range t.spans {
		var name string
		if name, err = str(); err != nil {
			return nil, err
		}
		var length uint64
		if length, buf, err = readUvarint(buf); err != nil {
			return nil, err
		}
		if length > uint64(len(t.lines)-at) {
			return nil, fmt.Errorf("class span %d overruns the dump", i)
		}
		t.spans[i] = ClassSpan{Name: name, Start: at, End: at + int(length)}
		at += int(length)
	}
	if at != len(t.lines) {
		return nil, fmt.Errorf("class spans cover %d of %d lines", at, len(t.lines))
	}
	if len(section) != 0 {
		return nil, fmt.Errorf("%d unused string section bytes", len(section))
	}
	if len(buf) != 0 {
		return nil, fmt.Errorf("%d trailing bytes after the dump payload", len(buf))
	}
	return t, nil
}

// decodeIndexOracle decodes an index payload into a built-style Index:
// seven maps with copied keys and decoded lists, every list cut from one
// arena as the version 5 decoder did.
func decodeIndexOracle(buf []byte, maxLines int) (*Index, error) {
	lines, buf, err := readUvarint(buf)
	if err != nil {
		return nil, err
	}
	postings, buf, err := readUvarint(buf)
	if err != nil {
		return nil, err
	}
	if lines > uint64(maxLines) {
		return nil, fmt.Errorf("index claims %d lines, dump has %d", lines, maxLines)
	}
	x := &Index{lines: int(lines), postings: int(postings)}
	arena := make([]int32, 0, min(postings, uint64(len(buf))))
	total := 0
	for _, l := range x.sideLists() {
		if *l, buf, err = decodePostings(buf, maxLines, &arena); err != nil {
			return nil, err
		}
		total += len(*l)
	}
	var counts [families]uint64
	tokens := uint64(0)
	for f := range counts {
		if counts[f], buf, err = readUvarint(buf); err != nil {
			return nil, err
		}
		if tokens += counts[f]; tokens > uint64(len(buf)) {
			return nil, fmt.Errorf("directory claims %d tokens", tokens)
		}
	}
	if uint64(len(buf)) < 8*tokens {
		return nil, fmt.Errorf("directory of %d tokens truncated", tokens)
	}
	keyEnds := make([]int, tokens)
	listEnds := make([]int, tokens)
	for j := range keyEnds {
		keyEnds[j] = int(binary.LittleEndian.Uint32(buf[4*j:]))
		listEnds[j] = int(binary.LittleEndian.Uint32(buf[4*(int(tokens)+j):]))
	}
	buf = buf[8*tokens:]
	keyLen := 0
	if tokens > 0 {
		keyLen = keyEnds[tokens-1]
	}
	if keyLen > len(buf) {
		return nil, fmt.Errorf("keys overrun the payload")
	}
	keys, lists := buf[:keyLen], buf[keyLen:]
	j, keyAt, listAt := 0, 0, 0
	for f := range x.maps {
		x.maps[f] = make(map[string][]int32, counts[f])
		prev := ""
		for i := uint64(0); i < counts[f]; i, j = i+1, j+1 {
			if keyEnds[j] < keyAt || keyEnds[j] > len(keys) || listEnds[j] < listAt || listEnds[j] > len(lists) {
				return nil, fmt.Errorf("token %d: offsets out of order", j)
			}
			key := string(keys[keyAt:keyEnds[j]])
			if i > 0 && key <= prev {
				return nil, fmt.Errorf("token %d: keys not strictly ascending", j)
			}
			p, rest, err := decodePostings(lists[listAt:listEnds[j]], maxLines, &arena)
			if err != nil {
				return nil, err
			}
			if len(p) == 0 || len(rest) != 0 {
				return nil, fmt.Errorf("token %d: list does not fill its bytes", j)
			}
			x.maps[f][key] = p
			total += len(p)
			prev, keyAt, listAt = key, keyEnds[j], listEnds[j]
		}
	}
	if listAt != len(lists) {
		return nil, fmt.Errorf("%d trailing bytes", len(lists)-listAt)
	}
	if uint64(total) != postings {
		return nil, fmt.Errorf("index claims %d postings, lists hold %d", postings, total)
	}
	return x, nil
}

// decodePostings rebuilds a delta-encoded postings list, rejecting any
// line outside [0, maxLines) and any non-ascending sequence. The list is
// cut from the free capacity of *arena when it fits there, with a full
// slice expression so that appending to it cannot reach the next list;
// an arena too small for it gives it an array of its own.
func decodePostings(buf []byte, maxLines int, arena *[]int32) ([]int32, []byte, error) {
	count, buf, err := readUvarint(buf)
	if err != nil {
		return nil, nil, err
	}
	if count == 0 {
		return nil, buf, nil
	}
	if count > uint64(maxLines) {
		return nil, nil, fmt.Errorf("%d postings for a %d-line dump", count, maxLines)
	}
	var p []int32
	if a := *arena; uint64(cap(a)-len(a)) >= count {
		n := len(a)
		p = a[n : n : n+int(count)]
		*arena = a[:n+int(count)]
	} else {
		p = make([]int32, 0, count)
	}
	prev := int64(-1)
	for i := uint64(0); i < count; i++ {
		var d uint64
		d, buf, err = readUvarint(buf)
		if err != nil {
			return nil, nil, err
		}
		if d > uint64(maxLines) {
			return nil, nil, fmt.Errorf("posting delta %d out of range", d)
		}
		if i == 0 {
			prev = int64(d)
		} else {
			if d == 0 {
				return nil, nil, fmt.Errorf("postings not strictly ascending")
			}
			prev += int64(d)
		}
		if prev >= int64(maxLines) {
			return nil, nil, fmt.Errorf("posting line %d out of range (dump has %d lines)", prev, maxLines)
		}
		p = append(p, int32(prev))
	}
	return p, buf, nil
}
