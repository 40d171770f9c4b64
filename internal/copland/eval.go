package copland

import (
	"errors"
	"fmt"
	"sync"

	"pera/internal/evidence"
)

// Evaluation — the Copland Virtual Machine.
//
// A Term is evaluated at a place against input evidence, producing output
// evidence. Places are runtime objects registered in an Env; each place
// can sign (the ! built-in) and exposes named ASP handlers (measurements,
// appraise, certify, store, ...). The VM records an execution trace of
// ASP events which tests and the trust analysis use to reason about
// adversary interleavings.

// Errors reported by evaluation.
var (
	ErrUnknownPlace = errors.New("copland: unknown place")
	ErrNoHandler    = errors.New("copland: no handler for ASP")
	ErrNoSigner     = errors.New("copland: place cannot sign")
)

// Call is the context passed to an ASP handler.
type Call struct {
	ASP    *ASP
	Place  string             // place executing the ASP
	Input  *evidence.Evidence // evidence accrued so far
	Params map[string][]byte  // request parameter bindings
}

// Arg resolves an ASP argument name against the request bindings, falling
// back to the literal name when unbound (so attest(Hardware) works without
// a binding for "Hardware").
func (c *Call) Arg(i int) []byte {
	if i >= len(c.ASP.Args) {
		return nil
	}
	name := c.ASP.Args[i]
	if v, ok := c.Params[name]; ok {
		return v
	}
	return []byte(name)
}

// Handler executes one ASP at a place.
type Handler func(*Call) (*evidence.Evidence, error)

// PlaceRuntime is the runtime behaviour of one place.
type PlaceRuntime struct {
	name     string
	signer   evidence.Signer
	mu       sync.Mutex
	handlers map[string]Handler
	fallback Handler
}

// NewPlace creates a place. signer may be nil for places that never sign.
func NewPlace(name string, signer evidence.Signer) *PlaceRuntime {
	return &PlaceRuntime{name: name, signer: signer, handlers: make(map[string]Handler)}
}

// Name returns the place name.
func (p *PlaceRuntime) Name() string { return p.name }

// Handle registers a handler for ASP name, replacing any previous one.
func (p *PlaceRuntime) Handle(name string, h Handler) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.handlers[name] = h
}

// HandleDefault registers a fallback for ASP names with no specific
// handler.
func (p *PlaceRuntime) HandleDefault(h Handler) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.fallback = h
}

func (p *PlaceRuntime) handler(name string) (Handler, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if h, ok := p.handlers[name]; ok {
		return h, true
	}
	if p.fallback != nil {
		return p.fallback, true
	}
	return nil, false
}

// Env maps place names to runtimes and holds evaluation knobs.
type Env struct {
	mu      sync.Mutex
	places  map[string]*PlaceRuntime
	remotes map[string]Caller // places reached over rats (remote.go)

	// Concurrent makes BPar branches run in goroutines. Evidence shape is
	// unaffected (results are still combined left/right); only handler
	// side effects can interleave, as on a real deployment.
	Concurrent bool

	// AdversarySwapsParallel models the active adversary of §4.2 who
	// controls scheduling of unordered branches: BPar evaluates its right
	// branch to completion before its left. Combined evidence shape is
	// unchanged — which is exactly why the attack works.
	AdversarySwapsParallel bool
}

// NewEnv returns an empty environment.
func NewEnv() *Env { return &Env{places: make(map[string]*PlaceRuntime)} }

// AddPlace registers a place runtime.
func (e *Env) AddPlace(p *PlaceRuntime) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.places[p.Name()] = p
}

// Place looks up a place by name.
func (e *Env) Place(name string) (*PlaceRuntime, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	p, ok := e.places[name]
	return p, ok
}

// Event is one ASP execution in a trace.
type Event struct {
	Seq    int
	Place  string
	ASP    string
	Target string
}

func (ev Event) String() string {
	if ev.Target != "" {
		return fmt.Sprintf("%d:%s@%s→%s", ev.Seq, ev.ASP, ev.Place, ev.Target)
	}
	return fmt.Sprintf("%d:%s@%s", ev.Seq, ev.ASP, ev.Place)
}

// Result is the outcome of executing a Request.
type Result struct {
	Evidence *evidence.Evidence
	Trace    []Event
}

// Exec evaluates a request in env with the given parameter bindings. If a
// parameter named "n" is bound it becomes the initial nonce evidence
// (the paper's `*RP, n :` convention); otherwise evaluation starts from
// empty evidence.
func Exec(env *Env, req *Request, bindings map[string][]byte) (*Result, error) {
	var init *evidence.Evidence
	if n, ok := bindings["n"]; ok {
		init = evidence.Nonce(n)
	} else {
		init = evidence.Empty()
	}
	return ExecTerm(env, req.RelyingParty, req.Body, init, bindings)
}

// ExecTerm evaluates term t starting at place, with explicit initial
// evidence.
func ExecTerm(env *Env, place string, t Term, init *evidence.Evidence, bindings map[string][]byte) (*Result, error) {
	vm := &vm{env: env, params: bindings}
	out, err := vm.eval(place, t, init)
	if err != nil {
		return nil, err
	}
	return &Result{Evidence: out, Trace: vm.trace}, nil
}

type vm struct {
	env    *Env
	params map[string][]byte
	mu     sync.Mutex
	seq    int
	trace  []Event
}

func (v *vm) record(place string, a *ASP) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.seq++
	v.trace = append(v.trace, Event{Seq: v.seq, Place: place, ASP: a.Name, Target: a.Target})
}

func (v *vm) eval(place string, t Term, e *evidence.Evidence) (*evidence.Evidence, error) {
	switch n := t.(type) {
	case *ASP:
		return v.evalASP(place, n, e)
	case *At:
		if _, ok := v.env.Place(n.Place); ok {
			return v.eval(n.Place, n.Body, e)
		}
		if c, ok := v.env.remote(n.Place); ok {
			return v.evalRemote(c, n.Place, n.Body, e)
		}
		return nil, fmt.Errorf("%w: %q", ErrUnknownPlace, n.Place)
	case *LSeq:
		mid, err := v.eval(place, n.L, e)
		if err != nil {
			return nil, err
		}
		return v.eval(place, n.R, mid)
	case *BSeq:
		l, err := v.eval(place, n.L, splitEvidence(n.LFlag, e))
		if err != nil {
			return nil, err
		}
		r, err := v.eval(place, n.R, splitEvidence(n.RFlag, e))
		if err != nil {
			return nil, err
		}
		return evidence.Seq(l, r), nil
	case *BPar:
		return v.evalPar(place, n, e)
	case *Guard:
		// Tests are resolved against a concrete network (internal/nac)
		// before execution; the VM cannot decide one.
		return nil, fmt.Errorf("copland: unresolved guard %q", n.Test)
	default:
		return nil, fmt.Errorf("copland: unknown term %T", t)
	}
}

func splitEvidence(f Flag, e *evidence.Evidence) *evidence.Evidence {
	if f {
		return e
	}
	return evidence.Empty()
}

func (v *vm) evalPar(place string, n *BPar, e *evidence.Evidence) (*evidence.Evidence, error) {
	le, re := splitEvidence(n.LFlag, e), splitEvidence(n.RFlag, e)
	switch {
	case v.env.AdversarySwapsParallel:
		// Adversary schedules the right branch first; the evidence still
		// reads left-then-right.
		r, err := v.eval(place, n.R, re)
		if err != nil {
			return nil, err
		}
		l, err := v.eval(place, n.L, le)
		if err != nil {
			return nil, err
		}
		return evidence.Par(l, r), nil
	case v.env.Concurrent:
		var (
			wg         sync.WaitGroup
			l, r       *evidence.Evidence
			lerr, rerr error
		)
		wg.Add(2)
		go func() { defer wg.Done(); l, lerr = v.eval(place, n.L, le) }()
		go func() { defer wg.Done(); r, rerr = v.eval(place, n.R, re) }()
		wg.Wait()
		if lerr != nil {
			return nil, lerr
		}
		if rerr != nil {
			return nil, rerr
		}
		return evidence.Par(l, r), nil
	default:
		l, err := v.eval(place, n.L, le)
		if err != nil {
			return nil, err
		}
		r, err := v.eval(place, n.R, re)
		if err != nil {
			return nil, err
		}
		return evidence.Par(l, r), nil
	}
}

func (v *vm) evalASP(place string, a *ASP, e *evidence.Evidence) (*evidence.Evidence, error) {
	pl, ok := v.env.Place(place)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownPlace, place)
	}
	// f(term): evaluate the subterm, then apply f to its evidence.
	input := e
	if a.SubTerm != nil {
		sub, err := v.eval(place, a.SubTerm, e)
		if err != nil {
			return nil, err
		}
		input = sub
	}
	switch a.Name {
	case SigName:
		if pl.signer == nil {
			return nil, fmt.Errorf("%w: %q", ErrNoSigner, place)
		}
		v.record(place, a)
		return evidence.Sign(pl.signer, input), nil
	case HashName:
		v.record(place, a)
		return evidence.Hash(input), nil
	case CopyName:
		v.record(place, a)
		return input, nil
	}
	h, ok := pl.handler(a.Name)
	if !ok {
		return nil, fmt.Errorf("%w: %q at place %q", ErrNoHandler, a.Name, place)
	}
	v.record(place, a)
	return h(&Call{ASP: a, Place: place, Input: input, Params: v.params})
}
