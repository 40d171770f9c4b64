package main

import (
	"encoding/binary"
	"sync"
	"time"

	"pera/internal/workload"
)

// kind selects what one request is and how its verdict is checked.
type kind int

const (
	// kindFresh: every packet carries a fresh nonce and is appraised with
	// it, so it is replay-checked; no chain ever repeats.
	kindFresh kind = iota
	// kindRepresent: per-flow session nonces rotate every sessionLen
	// packets, so most chains repeat byte for byte; jobs carry no nonce.
	kindRepresent
	// kindRATS: one Fig. 1 round (challenge, then appraise) over TCP.
	kindRATS
)

// workloadSpec is one traffic mix. The README says why each exists.
type workloadSpec struct {
	name     string
	kind     kind
	rate     float64 // open-loop requests per second
	observed bool    // telemetry, flow tracer and audit ledger attached
}

var workloads = []*workloadSpec{
	{name: "uc1_fresh", kind: kindFresh, rate: 1000},
	{name: "uc1_represent", kind: kindRepresent, rate: 2000},
	{name: "uc1_observed", kind: kindFresh, rate: 1000, observed: true},
	{name: "rats_tcp", kind: kindRATS, rate: 1000},
}

func lookupWorkload(name string) *workloadSpec {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

const (
	flows      = 16 // flow population of every in-process workload
	sessionLen = 16 // uc1_represent: packets per flow before its nonce rotates
	probeEvery = 64 // one request in probeEvery is a negative probe
)

// payloadSizes are uc1_represent's payload bytes, drawn 7:4:1; the other
// in-process workloads send the first.
var payloadSizes = [3]int{64, 576, 1400}

// outcome is how a request's verdict came back.
type outcome int

const (
	outPass     outcome = iota // certificate with a PASS verdict
	outFail                    // certificate with a FAIL verdict
	outReplayed                // rejected as a replayed nonce
	outError                   // anything else: a path, wire or appraisal error
)

func (o outcome) String() string {
	return [...]string{"PASS", "FAIL", "replay rejected", "error"}[o]
}

// request is one unit of offered load: a packet from bank to client, or
// one RATS round.
type request struct {
	id      uint64 // phase<<56 | seq
	seq     uint64 // sequence number within the phase
	ph      *phase
	nonce   []byte // 16 bytes: seed, then id (or the flow session)
	sport   uint64
	payload []byte
	probe   bool    // negative probe: the verdict must reject
	want    outcome // expected outcome, set when the request runs
	flip    int     // uc1_represent probe: signature byte to flip

	due      time.Time // open loop: when the request was due
	submitAt time.Time // traced runs: when the job entered the pool
}

// inputs draws one phase's requests. The sequence is a function of the
// seed and the phase alone, so a fixed-count open-loop phase offers the
// same packets on every run with the same seed.
type inputs struct {
	mu       sync.Mutex
	spec     *workloadSpec
	seed     uint64
	phase    uint64
	seq      uint64
	probes   bool
	probeOff uint64
	payloads *[3][]byte
	flowGen  *workload.Generator // uc1_represent's skewed flow draws
	sessions [flows]struct{ sent, n uint64 }
}

func newInputs(spec *workloadSpec, seed, phase uint64, probes bool, payloads *[3][]byte) *inputs {
	return &inputs{
		spec: spec, seed: seed, phase: phase, probes: probes,
		probeOff: mix(seed, 0) % probeEvery,
		payloads: payloads,
		flowGen:  workload.New(workload.Config{Flows: flows, Pattern: workload.Skewed, Seed: mix(seed, phase<<56) | 1}),
	}
}

func (in *inputs) next(ph *phase) *request {
	in.mu.Lock()
	defer in.mu.Unlock()
	seq := in.seq
	in.seq++
	r := &request{id: in.phase<<56 | seq, seq: seq, ph: ph}
	x := mix(in.seed, r.id)
	r.probe = in.probes && seq%probeEvery == in.probeOff
	r.flip = int(x>>32) % 64
	switch in.spec.kind {
	case kindRepresent:
		f := in.flowGen.NextFlow()
		i := int(f.SPort - 40000)
		s := &in.sessions[i]
		if s.sent == sessionLen {
			s.sent, s.n = 0, s.n+1
		}
		s.sent++
		r.sport = f.SPort
		r.nonce = makeNonce(in.seed, in.phase<<56|uint64(i)<<40|s.n)
		switch d := x % 12; {
		case d < 7:
			r.payload = in.payloads[0]
		case d < 11:
			r.payload = in.payloads[1]
		default:
			r.payload = in.payloads[2]
		}
	default:
		r.sport = 40000 + x%flows
		r.nonce = makeNonce(in.seed, r.id)
		r.payload = in.payloads[0]
	}
	return r
}

// makeNonce encodes the seed and an identifier. rats_tcp's server-side
// spans read the request ID back from the last eight bytes.
func makeNonce(seed, id uint64) []byte {
	n := make([]byte, 16)
	binary.BigEndian.PutUint64(n, seed)
	binary.BigEndian.PutUint64(n[8:], id)
	return n
}

func requestIDOf(nonce []byte) uint64 {
	if len(nonce) != 16 {
		return 0
	}
	return binary.BigEndian.Uint64(nonce[8:])
}

// mix is splitmix64 over the seed and a key: a stateless draw, so a
// request's inputs do not depend on which goroutine drew it.
func mix(seed, key uint64) uint64 {
	z := seed*0x9E3779B97F4A7C15 + key + 0x9E3779B97F4A7C15
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

func makePayloads(seed uint64) *[3][]byte {
	var p [3][]byte
	for i, n := range payloadSizes {
		p[i] = make([]byte, n)
		for j := range p[i] {
			p[i][j] = byte(mix(seed, uint64(j)))
		}
	}
	return &p
}
