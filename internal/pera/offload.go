package pera

import (
	"fmt"
	"sync"

	"pera/internal/rats"
	"pera/internal/rot"
)

// Crypto disaggregation. §5.2: the evidence primitives "might be
// integrated into the ASIC or might be remotely invoked by the
// programmable switch" (citing Flightplan's dataplane disaggregation).
// This file implements the remote variant: a SignerService holds the
// signing roots of trust (e.g. on an FPGA or crypto appliance beside the
// switch) and answers MsgSign requests; a RemoteSigner plugs into a
// Switch in place of its local RoT, so every ! operation becomes a
// service call.
//
// Failure semantics are fail-closed: if the offload is unreachable, the
// RemoteSigner produces an empty signature, which no verifier accepts —
// degraded crypto never masquerades as attestation.

// Caller is the client side of a rats exchange; *rats.Conn implements it.
type Caller interface {
	Call(*rats.Message) (*rats.Message, error)
}

// SignerService hosts signing identities for offloaded switches.
type SignerService struct {
	mu    sync.Mutex
	roots map[string]*rot.RoT
	signs uint64
}

// NewSignerService creates an empty service.
func NewSignerService() *SignerService {
	return &SignerService{roots: make(map[string]*rot.RoT)}
}

// Host installs the signing RoT for an identity.
func (s *SignerService) Host(r *rot.RoT) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.roots[r.Name()] = r
}

// Signs reports how many signatures the service has produced.
func (s *SignerService) Signs() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.signs
}

// Handler returns the rats.Handler servicing MsgSign requests.
func (s *SignerService) Handler() rats.Handler {
	return func(req *rats.Message) *rats.Message {
		if req.Type != rats.MsgSign {
			return &rats.Message{Type: rats.MsgError, Session: req.Session,
				Body: []byte(fmt.Sprintf("signer service cannot handle %v", req.Type))}
		}
		if len(req.Claims) != 1 {
			return &rats.Message{Type: rats.MsgError, Session: req.Session,
				Body: []byte("sign needs exactly one identity claim")}
		}
		s.mu.Lock()
		r, ok := s.roots[req.Claims[0]]
		if ok {
			s.signs++
		}
		s.mu.Unlock()
		if !ok {
			return &rats.Message{Type: rats.MsgError, Session: req.Session,
				Body: []byte(fmt.Sprintf("no key hosted for %q", req.Claims[0]))}
		}
		return &rats.Message{Type: rats.MsgResult, Session: req.Session, Body: r.Sign(req.Body)}
	}
}

// RemoteSigner is an evidence.Signer whose Sign operation is a service
// call. It satisfies the same interface as *rot.RoT, so a Switch can use
// it transparently.
type RemoteSigner struct {
	name string
	c    Caller

	mu      sync.Mutex
	lastErr error
	calls   uint64
}

// NewRemoteSigner builds a signer for identity name backed by c.
func NewRemoteSigner(name string, c Caller) *RemoteSigner {
	return &RemoteSigner{name: name, c: c}
}

// Name implements evidence.Signer.
func (r *RemoteSigner) Name() string { return r.name }

// Sign implements evidence.Signer by calling the offload service. On any
// failure it records the error and returns nil — an invalid signature
// that fails closed at verification.
func (r *RemoteSigner) Sign(message []byte) []byte {
	r.mu.Lock()
	r.calls++
	r.mu.Unlock()
	resp, err := r.c.Call(&rats.Message{
		Type:   rats.MsgSign,
		Claims: []string{r.name},
		Body:   message,
	})
	if err != nil {
		r.setErr(err)
		return nil
	}
	if resp.Type != rats.MsgResult {
		r.setErr(fmt.Errorf("pera: unexpected signer response %v", resp.Type))
		return nil
	}
	r.setErr(nil)
	// The signature outlives the response frame it was decoded from
	// (rats.Decode aliases it): the evidence it signs keeps it.
	return append([]byte(nil), resp.Body...)
}

func (r *RemoteSigner) setErr(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.lastErr = err
}

// Err returns the error from the most recent Sign call, nil if it
// succeeded.
func (r *RemoteSigner) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lastErr
}

// Calls reports how many sign operations were attempted.
func (r *RemoteSigner) Calls() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.calls
}
