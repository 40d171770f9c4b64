package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"pera/internal/appraiser"
	"pera/internal/evidence"
	"pera/internal/pera"
	"pera/internal/rats"
	"pera/internal/usecases"
)

// challengeClaims are what each rats_tcp round asks sw1 to attest.
var challengeClaims = []string{"hardware", "program"}

// ratsTCP runs Fig. 1 rounds over loopback TCP against in-process
// servers: sw1's attester handler and the appraiser's handler, each under
// rats.ListenAndServe, as attestd and appraised mount them. Each client
// holds one connection to each server.
type ratsTCP struct {
	tb     *usecases.Testbed
	cache  *evidence.Cache
	sw1    *pera.Switch
	lns    []net.Listener
	conns  [clientsN]struct{ attester, appraiser *rats.Conn }
	tracer atomic.Pointer[tracer]

	challenges atomic.Int64           // challenges sw1 answered with evidence
	certBytes  atomic.Int64           // certificate bytes received
	lastPass   atomic.Pointer[[]byte] // nonce of a round that passed
	inflight   gauge                  // appraisals in the appraiser's handler
	closeOnce  sync.Once
}

func newRatsTCP() (*ratsTCP, error) {
	tb, cache, err := newTestbed()
	if err != nil {
		return nil, err
	}
	s := &ratsTCP{tb: tb, cache: cache, sw1: tb.Switches[usecases.SwFirewall]}
	servers := []rats.Handler{
		s.timed("pera.hop.sw1", "rats.challenge", s.sw1.AttesterHandler(), nil),
		s.timed("appraiser.verdict", "rats.appraise", tb.Appraiser.Handler(), &s.inflight),
	}
	for _, h := range servers {
		ln, err := rats.ListenAndServe("127.0.0.1:0", h)
		if err != nil {
			s.close()
			return nil, err
		}
		s.lns = append(s.lns, ln)
	}
	for i := range s.conns {
		c := &s.conns[i]
		if c.attester, err = rats.Dial(s.lns[0].Addr().String()); err == nil {
			c.appraiser, err = rats.Dial(s.lns[1].Addr().String())
		}
		if err != nil {
			s.close()
			return nil, err
		}
	}
	return s, nil
}

// timed wraps a server handler so the traced phase records its service
// time as a span of the request named in the message nonce.
func (s *ratsTCP) timed(name, parent string, h rats.Handler, g *gauge) rats.Handler {
	return func(m *rats.Message) *rats.Message {
		if g != nil {
			g.enter()
			defer g.exit()
		}
		tr := s.tracer.Load()
		t0 := tr.now()
		resp := h(m)
		tr.span(requestIDOf(m.Nonce), name, parent, t0, tr.now())
		return resp
	}
}

func (s *ratsTCP) do(c *client, r *request) {
	tr := r.ph.tr
	conn := s.conns[c.id]
	if r.probe {
		if c.last.nonce != nil {
			r.want = outReplayed
			o, at, err := s.appraise(conn.appraiser, r, c.last.nonce, c.last.body)
			r.ph.complete(r, o, at, err)
			return
		}
		r.probe = false // nothing to replay yet on this client
	}
	t0 := tr.now()
	ev, err := conn.attester.Call(&rats.Message{Type: rats.MsgChallenge, Nonce: r.nonce, Claims: challengeClaims})
	tr.span(r.id, "rats.challenge", "request", t0, tr.now())
	if err != nil {
		r.ph.fail(r, fmt.Errorf("challenge: %w", err))
		return
	}
	s.challenges.Add(1)
	if ev.Type != rats.MsgEvidence || !bytes.Equal(ev.Nonce, r.nonce) {
		r.ph.fail(r, fmt.Errorf("challenge answered with %v", ev.Type))
		return
	}
	r.ph.evidence(len(ev.Body))
	o, at, err := s.appraise(conn.appraiser, r, r.nonce, ev.Body)
	if o == outPass {
		c.last = replayable{nonce: r.nonce, body: ev.Body}
		s.lastPass.Store(&r.nonce)
	}
	r.ph.complete(r, o, at, err)
}

// appraise sends one appraise request and classifies the reply.
func (s *ratsTCP) appraise(conn *rats.Conn, r *request, nonce, body []byte) (outcome, time.Time, error) {
	tr := r.ph.tr
	t0 := tr.now()
	res, err := conn.Call(&rats.Message{Type: rats.MsgAppraise, Nonce: nonce, Claims: []string{subject}, Body: body})
	at := time.Now()
	tr.span(r.id, "rats.appraise", "request", t0, at)
	switch {
	case err != nil && res != nil && string(res.Body) == appraiser.ErrNonceReplayed.Error():
		return outReplayed, at, err
	case err != nil:
		return outError, at, err
	case res.Type != rats.MsgResult:
		return outError, at, fmt.Errorf("appraise answered with %v", res.Type)
	}
	s.certBytes.Add(int64(len(res.Body)))
	cert, err := appraiser.DecodeCertificate(res.Body)
	if err != nil {
		return outError, at, err
	}
	if !bytes.Equal(cert.Nonce, nonce) {
		return outError, at, errors.New("certificate for another nonce")
	}
	o, err := outcomeOf(cert, nil)
	return o, at, err
}

func (s *ratsTCP) counters() layerCounters {
	c := testbedCounters(s.tb, s.cache)
	c.certBytes = uint64(s.certBytes.Load())
	c.inflightMax = s.inflight.max.Load()
	return c
}

func (s *ratsTCP) setTracer(tr *tracer) {
	if tr != nil {
		s.inflight.resetMax()
	}
	s.tracer.Store(tr)
}

// finish checks that sw1 signed once and consulted the evidence cache
// once per claim for each challenge it answered, that no frame crossed
// a switch, and that the appraiser stored a passing round's certificate.
func (s *ratsTCP) finish(totals) error {
	defer s.close()
	var cc countCheck
	if nonce := s.lastPass.Load(); nonce != nil {
		if cert, err := s.tb.Appraiser.Retrieve(*nonce); err != nil || !cert.Verdict {
			cc = append(cc, fmt.Errorf("stored certificate of a passing round: %v", err))
		}
	}
	n := uint64(s.challenges.Load())
	c := s.counters()
	cc.eq("sw1 sign ops", s.sw1.Stats().SignOps, n)
	cc.eq("switch packets", c.packets, 0)
	cc.eq("cache lookups", c.cacheHits+c.cacheMisses, uint64(len(challengeClaims))*n)
	return cc.err()
}

func (s *ratsTCP) close() {
	s.closeOnce.Do(func() {
		for _, c := range s.conns {
			if c.attester != nil {
				c.attester.Close()
			}
			if c.appraiser != nil {
				c.appraiser.Close()
			}
		}
		for _, ln := range s.lns {
			ln.Close()
		}
	})
}
