// Package profiler is the continuous-profiling plane: it captures
// CPU/heap/mutex/block/goroutine profiles on a cadence into a bounded
// ring, decodes them with a zero-dependency pprof reader, attributes CPU
// samples to RATS stages via the telemetry.ProfRegion labels stamped
// around the hot-path regions, and diffs the live window against a
// pinned baseline so a hot-path regression pages through the same
// freshness sink pipeline (stderr/audit ledger) every other alert
// rides. See docs/PROFILING.md.
package profiler

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
)

// This file is the zero-dependency pprof artifact reader: gzip plus a
// minimal protobuf wire-format decode of profile.proto, covering exactly
// the fields the profiler consumes (sample types, samples with labels,
// locations, functions, string table, period). The repo's no-deps rule
// forbids google.golang.org/protobuf; the wire format itself is small —
// varints, and length-delimited submessages — and decoding it by hand
// keeps incident bundles readable offline with nothing but this package.

// ValueType is one (type, unit) pair from the profile's sample_type or
// period_type, resolved through the string table.
type ValueType struct {
	Type string `json:"type"`
	Unit string `json:"unit"`
}

// Sample is one decoded stack sample.
type Sample struct {
	// LocationIDs lead from the leaf (index 0) to the root.
	LocationIDs []uint64
	// Values align with the profile's SampleTypes.
	Values []int64
	// Labels are the string-valued pprof labels (pera_stage, pera_place).
	Labels map[string]string
}

// Line is one source line of a location.
type Line struct {
	FunctionID uint64
	Line       int64
}

// Location is one decoded program counter.
type Location struct {
	ID      uint64
	Address uint64
	Lines   []Line
}

// Function is one decoded function entry.
type Function struct {
	ID   uint64
	Name string
	File string
}

// Profile is a decoded pprof artifact — the subset of profile.proto the
// profiler consumes.
type Profile struct {
	SampleTypes []ValueType
	Samples     []Sample
	Locations   map[uint64]Location
	Functions   map[uint64]Function
	PeriodType  ValueType
	Period      int64
	TimeNanos   int64
	DurationNS  int64

	strings []string
}

// proto wire types.
const (
	wireVarint = 0
	wire64     = 1
	wireBytes  = 2
	wire32     = 5
)

// errTruncated reports malformed/truncated wire data.
var errTruncated = fmt.Errorf("profiler: truncated profile data")

// uvarint decodes one varint at data[off:], returning the value and the
// next offset, or an error on truncation/overflow.
func uvarint(data []byte, off int) (uint64, int, error) {
	var v uint64
	var shift uint
	for i := off; i < len(data); i++ {
		b := data[i]
		if shift >= 64 {
			return 0, 0, fmt.Errorf("profiler: varint overflow at byte %d", off)
		}
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return v, i + 1, nil
		}
		shift += 7
	}
	return 0, 0, errTruncated
}

// field decodes one field header + payload span starting at off.
// For wireBytes fields the returned span is the payload; for varints it
// is empty and the value is returned directly.
func field(data []byte, off int) (num int, wt int, val uint64, payload []byte, next int, err error) {
	key, off, err := uvarint(data, off)
	if err != nil {
		return 0, 0, 0, nil, 0, err
	}
	num, wt = int(key>>3), int(key&7)
	switch wt {
	case wireVarint:
		val, next, err = uvarint(data, off)
	case wire64:
		if off+8 > len(data) {
			return 0, 0, 0, nil, 0, errTruncated
		}
		for i := 0; i < 8; i++ {
			val |= uint64(data[off+i]) << (8 * i)
		}
		next = off + 8
	case wireBytes:
		var n uint64
		n, off, err = uvarint(data, off)
		if err != nil {
			return 0, 0, 0, nil, 0, err
		}
		if uint64(len(data)-off) < n {
			return 0, 0, 0, nil, 0, errTruncated
		}
		payload, next = data[off:off+int(n)], off+int(n)
	case wire32:
		if off+4 > len(data) {
			return 0, 0, 0, nil, 0, errTruncated
		}
		for i := 0; i < 4; i++ {
			val |= uint64(data[off+i]) << (8 * i)
		}
		next = off + 4
	default:
		return 0, 0, 0, nil, 0, fmt.Errorf("profiler: unknown wire type %d", wt)
	}
	return num, wt, val, payload, next, err
}

// packedOrOne appends either a whole packed payload of varints or one
// unpacked varint value to dst — repeated scalar fields appear both ways
// on the wire.
func packedOrOne(dst []uint64, wt int, val uint64, payload []byte) ([]uint64, error) {
	if wt == wireVarint {
		return append(dst, val), nil
	}
	for off := 0; off < len(payload); {
		v, next, err := uvarint(payload, off)
		if err != nil {
			return nil, err
		}
		dst = append(dst, v)
		off = next
	}
	return dst, nil
}

// str resolves a string-table index, tolerating forward references by
// returning "" for anything unresolved (the table is the last field Go's
// encoder emits, so resolution happens after the full parse).
func (p *Profile) str(i uint64) string {
	if i < uint64(len(p.strings)) {
		return p.strings[i]
	}
	return ""
}

// ParseProfile decodes a pprof artifact (gzip-compressed or raw
// profile.proto bytes) into the subset of the schema the profiler uses.
func ParseProfile(data []byte) (*Profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profiler: gunzip: %w", err)
		}
		// The trailer's size, which the reader checks at EOF, sizes the one
		// buffer: past the cap, or short of the stream's end, it is refused.
		size := binary.LittleEndian.Uint32(data[len(data)-4:])
		if size > maxProfileBytes {
			return nil, fmt.Errorf("profiler: gunzip: profile exceeds %d bytes decompressed", maxProfileBytes)
		}
		raw := make([]byte, size)
		if _, err := io.ReadFull(zr, raw); err != nil {
			return nil, fmt.Errorf("profiler: gunzip: %w", err)
		}
		if n, err := zr.Read(make([]byte, 1)); n != 0 || err != io.EOF {
			return nil, fmt.Errorf("profiler: gunzip: stream does not end at the trailer's %d bytes", size)
		}
		data = raw
	}
	p := &Profile{
		Locations: make(map[uint64]Location),
		Functions: make(map[uint64]Function),
	}
	// First pass collects raw (string-index) forms; indices are resolved
	// after the string table is complete.
	type rawLabel struct{ key, str uint64 }
	type rawSample struct {
		s      Sample
		labels []rawLabel
	}
	var rawSamples []rawSample
	var rawFuncs []struct {
		id, name, file uint64
	}
	var rawSampleTypes, rawPeriodType [][2]uint64

	parseValueType := func(b []byte) ([2]uint64, error) {
		var vt [2]uint64
		for off := 0; off < len(b); {
			num, _, val, _, next, err := field(b, off)
			if err != nil {
				return vt, err
			}
			switch num {
			case 1:
				vt[0] = val
			case 2:
				vt[1] = val
			}
			off = next
		}
		return vt, nil
	}

	for off := 0; off < len(data); {
		num, wt, val, payload, next, err := field(data, off)
		if err != nil {
			return nil, err
		}
		switch num {
		case 1: // sample_type
			vt, err := parseValueType(payload)
			if err != nil {
				return nil, err
			}
			rawSampleTypes = append(rawSampleTypes, vt)
		case 2: // sample
			var rs rawSample
			for o := 0; o < len(payload); {
				n2, wt2, v2, pl2, nx2, err := field(payload, o)
				if err != nil {
					return nil, err
				}
				switch n2 {
				case 1: // location_id
					rs.s.LocationIDs, err = packedOrOne(rs.s.LocationIDs, wt2, v2, pl2)
				case 2: // value
					var vs []uint64
					vs, err = packedOrOne(nil, wt2, v2, pl2)
					for _, u := range vs {
						rs.s.Values = append(rs.s.Values, int64(u))
					}
				case 3: // label
					var l rawLabel
					for lo := 0; lo < len(pl2); {
						n3, _, v3, _, nx3, err := field(pl2, lo)
						if err != nil {
							return nil, err
						}
						switch n3 {
						case 1:
							l.key = v3
						case 2:
							l.str = v3
						}
						lo = nx3
					}
					if l.str != 0 { // numeric labels (str == 0) are not consumed
						rs.labels = append(rs.labels, l)
					}
				}
				if err != nil {
					return nil, err
				}
				o = nx2
			}
			rawSamples = append(rawSamples, rs)
		case 4: // location
			var loc Location
			for o := 0; o < len(payload); {
				n2, _, v2, pl2, nx2, err := field(payload, o)
				if err != nil {
					return nil, err
				}
				switch n2 {
				case 1:
					loc.ID = v2
				case 3:
					loc.Address = v2
				case 4: // line
					var ln Line
					for lo := 0; lo < len(pl2); {
						n3, _, v3, _, nx3, err := field(pl2, lo)
						if err != nil {
							return nil, err
						}
						switch n3 {
						case 1:
							ln.FunctionID = v3
						case 2:
							ln.Line = int64(v3)
						}
						lo = nx3
					}
					loc.Lines = append(loc.Lines, ln)
				}
				o = nx2
			}
			p.Locations[loc.ID] = loc
		case 5: // function
			var fn struct{ id, name, file uint64 }
			for o := 0; o < len(payload); {
				n2, _, v2, _, nx2, err := field(payload, o)
				if err != nil {
					return nil, err
				}
				switch n2 {
				case 1:
					fn.id = v2
				case 2:
					fn.name = v2
				case 4:
					fn.file = v2
				}
				o = nx2
			}
			rawFuncs = append(rawFuncs, fn)
		case 6: // string_table
			if wt != wireBytes {
				return nil, fmt.Errorf("profiler: string_table wire type %d", wt)
			}
			p.strings = append(p.strings, string(payload))
		case 9:
			p.TimeNanos = int64(val)
		case 10:
			p.DurationNS = int64(val)
		case 11: // period_type
			vt, err := parseValueType(payload)
			if err != nil {
				return nil, err
			}
			rawPeriodType = append(rawPeriodType, vt)
		case 12:
			p.Period = int64(val)
		}
		off = next
	}
	if len(p.strings) == 0 {
		return nil, fmt.Errorf("profiler: no string table (not a pprof profile?)")
	}

	for _, vt := range rawSampleTypes {
		p.SampleTypes = append(p.SampleTypes, ValueType{Type: p.str(vt[0]), Unit: p.str(vt[1])})
	}
	if len(rawPeriodType) > 0 {
		vt := rawPeriodType[len(rawPeriodType)-1]
		p.PeriodType = ValueType{Type: p.str(vt[0]), Unit: p.str(vt[1])}
	}
	for _, fn := range rawFuncs {
		p.Functions[fn.id] = Function{ID: fn.id, Name: p.str(fn.name), File: p.str(fn.file)}
	}
	p.Samples = make([]Sample, 0, len(rawSamples))
	for _, rs := range rawSamples {
		s := rs.s
		if len(rs.labels) > 0 {
			s.Labels = make(map[string]string, len(rs.labels))
			for _, l := range rs.labels {
				s.Labels[p.str(l.key)] = p.str(l.str)
			}
		}
		p.Samples = append(p.Samples, s)
	}
	return p, nil
}

// maxProfileBytes caps a profile's decompressed size; a 2s CPU window
// on 64 CPUs with 64-frame stacks is about 2.5 MB.
const maxProfileBytes = 8 << 20

// ValueIndex returns the index of the sample-type named typ, or the last
// index when absent — for CPU profiles the convention is
// [samples/count, cpu/nanoseconds], and "last" is the measured quantity
// for every runtime/pprof profile kind.
func (p *Profile) ValueIndex(typ string) int {
	for i, st := range p.SampleTypes {
		if st.Type == typ {
			return i
		}
	}
	return len(p.SampleTypes) - 1
}

// LeafFunction names the innermost frame of a sample — its hotspot
// attribution. Unknown locations render as "?".
func (p *Profile) LeafFunction(s *Sample) string {
	if len(s.LocationIDs) == 0 {
		return "?"
	}
	loc, ok := p.Locations[s.LocationIDs[0]]
	if !ok || len(loc.Lines) == 0 {
		return "?"
	}
	fn, ok := p.Functions[loc.Lines[0].FunctionID]
	if !ok || fn.Name == "" {
		return "?"
	}
	return fn.Name
}
