package pisa

import (
	"fmt"

	"pera/internal/p4ir"
)

// BuildFrame serializes the named headers of prog, taking field values
// from fields (absent fields are zero), and appends payload. It is the
// inverse of Parse for well-formed inputs and is used by tests, examples
// and the traffic generators.
func BuildFrame(prog *p4ir.Program, headers []string, fields map[string]uint64, payload []byte) ([]byte, error) {
	return buildFrame(prog, headers, payload, func(hdr, field string) uint64 {
		return fields[p4ir.QName(hdr, field)]
	})
}

var ipHeaders = []string{"eth", "ip", "tp"}

// IPFrame builds an eth+ip+tp frame for the standard program library
// headers, with eth.typ and ip.proto set so the std parser walks all
// three headers (proto 6 = "TCP-like").
func IPFrame(prog *p4ir.Program, src, dst uint64, sport, dport uint64, payload []byte) ([]byte, error) {
	return buildFrame(prog, ipHeaders, payload, func(hdr, field string) uint64 {
		switch hdr {
		case "eth":
			if field == "typ" {
				return p4ir.EtherTypeIP
			}
		case "ip":
			switch field {
			case "src":
				return src
			case "dst":
				return dst
			case "proto":
				return 6
			case "ttl":
				return 64
			}
		case "tp":
			switch field {
			case "sport":
				return sport
			case "dport":
				return dport
			}
		}
		return 0
	})
}

// buildFrame writes prog's named headers, each field's value from value,
// and then payload, into one exact-size buffer.
func buildFrame(prog *p4ir.Program, headers []string, payload []byte, value func(hdr, field string) uint64) ([]byte, error) {
	bits := 0
	for _, name := range headers {
		hdr, ok := prog.Header(name)
		if !ok {
			return nil, fmt.Errorf("pisa: unknown header %q", name)
		}
		bits += hdr.BitWidth()
	}
	n := (bits + 7) / 8
	out := make([]byte, n+len(payload))
	off := 0
	for _, name := range headers {
		hdr, _ := prog.Header(name)
		for _, f := range hdr.Fields {
			writeField(out, off, f.Bits, value(hdr.Name, f.Name))
			off += f.Bits
		}
	}
	copy(out[n:], payload)
	return out, nil
}
