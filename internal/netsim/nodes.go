package netsim

import (
	"sync"

	"pera/internal/p4ir"
	"pera/internal/pisa"
)

// Host is an end system: it records frames delivered to it and transmits
// via the network. A host has one network port (port 1) by convention.
type Host struct {
	name string
	addr uint64

	mu       sync.Mutex
	received [][]byte
}

// HostPort is the single network-facing port of a Host.
const HostPort = 1

// NewHost creates a host with an abstract address (its ip.src/ip.dst
// identity in frames).
func NewHost(name string, addr uint64) *Host {
	return &Host{name: name, addr: addr}
}

// Name implements Node.
func (h *Host) Name() string { return h.name }

// Addr returns the host's address.
func (h *Host) Addr() uint64 { return h.addr }

// Receive implements Node: hosts are sinks.
func (h *Host) Receive(port uint64, frame []byte) ([]Emission, error) {
	h.mu.Lock()
	h.received = append(h.received, append([]byte(nil), frame...))
	h.mu.Unlock()
	return nil, nil
}

// Received returns copies of the frames delivered so far.
func (h *Host) Received() [][]byte {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([][]byte, len(h.received))
	for i, f := range h.received {
		out[i] = append([]byte(nil), f...)
	}
	return out
}

// LastReceived returns a copy of the most recent frame delivered, or
// (nil, false) if none arrived yet. Unlike Received it copies only that
// one frame, so polling the latest delivery stays O(1) in allocations.
func (h *Host) LastReceived() ([]byte, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.received) == 0 {
		return nil, false
	}
	last := h.received[len(h.received)-1]
	return append([]byte(nil), last...), true
}

// ReceivedCount returns how many frames arrived.
func (h *Host) ReceivedCount() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.received)
}

// Clear drops recorded frames.
func (h *Host) Clear() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.received = nil
}

// Switch adapts a pisa.Instance as a network node.
type Switch struct {
	name string
	inst *pisa.Instance
}

// NewSwitch wraps a loaded pisa instance.
func NewSwitch(name string, inst *pisa.Instance) *Switch {
	return &Switch{name: name, inst: inst}
}

// Name implements Node.
func (s *Switch) Name() string { return s.name }

// Instance exposes the underlying dataplane for control-plane operations.
func (s *Switch) Instance() *pisa.Instance { return s.inst }

// Receive implements Node by running the PISA pipeline.
func (s *Switch) Receive(port uint64, frame []byte) ([]Emission, error) {
	outs, err := s.inst.Process(frame, port)
	if err != nil {
		return nil, err
	}
	emits := make([]Emission, 0, len(outs))
	for _, o := range outs {
		emits = append(emits, Emission{Port: o.Port, Frame: o.Packet.Data})
	}
	return emits, nil
}

// Appliance is a middlebox applying a frame transformation (DPI, IDS,
// scrubber...). The function returns the frames to emit back out; a
// bump-in-the-wire appliance typically returns the input unchanged.
type Appliance struct {
	name    string
	inPort  uint64
	outPort uint64
	fn      func(frame []byte) [][]byte

	mu   sync.Mutex
	seen int
}

// NewAppliance creates a two-port middlebox: frames arriving on inPort
// are transformed and emitted on outPort, and vice versa (symmetric).
func NewAppliance(name string, inPort, outPort uint64, fn func([]byte) [][]byte) *Appliance {
	return &Appliance{name: name, inPort: inPort, outPort: outPort, fn: fn}
}

// Name implements Node.
func (a *Appliance) Name() string { return a.name }

// Seen reports how many frames the appliance has processed.
func (a *Appliance) Seen() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.seen
}

// Receive implements Node.
func (a *Appliance) Receive(port uint64, frame []byte) ([]Emission, error) {
	a.mu.Lock()
	a.seen++
	a.mu.Unlock()
	out := a.outPort
	if port == a.outPort {
		out = a.inPort
	}
	var emits []Emission
	frames := [][]byte{frame}
	if a.fn != nil {
		frames = a.fn(frame)
	}
	for _, f := range frames {
		emits = append(emits, Emission{Port: out, Frame: f})
	}
	return emits, nil
}

// SendIP builds an eth/ip/tp frame from the host's address to dst and
// transmits it through the network. prog supplies the header layouts.
func (h *Host) SendIP(n *Network, prog *p4ir.Program, dst, sport, dport uint64, payload []byte) error {
	frame, err := pisa.IPFrame(prog, h.addr, dst, sport, dport, payload)
	if err != nil {
		return err
	}
	return n.Send(h.name, HostPort, frame)
}
