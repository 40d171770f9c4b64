// Package nac binds Network-Aware Copland policies — the paper's §5.1
// hybrid of Copland and NetKAT, parsed by copland.ParsePolicy — to a
// concrete network, and lowers them to what that network executes.
//
// Compile binds a policy against a forwarding path (PathFromNetwork
// derives one from internal/netsim): `forall` variables bind to real
// nodes, each `*=>` segment spans zero or more hops, and `K |>` guards
// resolve through a TestRegistry. Per-hop phrases become pera.Obligations,
// carried in the in-band header or installed out-of-band; endpoint phrases
// are lowered to plain Copland, guards stripped and variables substituted,
// for the copland VM to run on hosts. table1.go holds the paper's Table 1
// policies.
//
// Binding semantics, matching the paper's Table 1 examples:
//
//   - A concrete place atom (@Switch, @peer1) must appear on the path by
//     name; service places (@Appraiser) are not on the path.
//   - A variable atom (@p) binds to an attesting hop; non-attesting hops
//     may sit in between (AP3's "between q and r we do not require nodes
//     that support RA"). An atom at the end of the path may bind the
//     destination host (AP1's @client).
//   - A starred segment whose only path atom is a single variable (@hop)
//     replicates across every attesting hop in its span — AP1's ∀hop —
//     and compiles to one place-unbound obligation executed by every
//     PERA element the traffic crosses.
//   - `K |>` guards resolve through a TestRegistry: place predicates are
//     evaluated at bind time ("fail early"); packet predicates compile
//     into the obligation's guard list and run per packet on the switch.
package nac

import (
	"errors"
	"fmt"
	"slices"

	"pera/internal/copland"
	"pera/internal/evidence"
	"pera/internal/netsim"
	"pera/internal/pera"
)

// TestSpec gives meaning to a guard test name.
type TestSpec struct {
	// PlacePred, if non-nil, must hold of the concrete place at bind
	// time (e.g. Khop: "the operator has keys for this hop").
	PlacePred func(place string) bool
	// PacketGuards are compiled into the obligation and evaluated per
	// packet on the dataplane (e.g. P: "dport=4444").
	PacketGuards []pera.Guard
}

// TestRegistry maps guard test names to their specifications.
type TestRegistry map[string]TestSpec

// PathHop is one element of the concrete path being bound against.
type PathHop struct {
	Name      string
	Attesting bool // PERA-capable (has a RoT and the evidence stages)
	CanSign   bool // has a signing identity (end hosts, PERA switches)
}

// HostTerm is an endpoint Copland phrase to run at a concrete place.
type HostTerm struct {
	Place string
	Term  copland.Term
}

// Compiled is the output of Compile.
type Compiled struct {
	// Policy carries the per-hop obligations (wire-encodable for the
	// in-band header, or installable as standing config out-of-band).
	Policy *pera.Policy
	// HostTerms are endpoint phrases (e.g. AP1's client-side bank check)
	// in plain Copland, with variables substituted.
	HostTerms []HostTerm
	// Bindings records what each forall variable resolved to; the
	// per-hop variable maps to "*".
	Bindings map[string]string
}

// Options tune compilation.
type Options struct {
	// Nonce binds the policy run (the n parameter).
	Nonce []byte
	// Properties resolves property parameters (AP1's X) and attest
	// arguments to evidence details. Built-in names Hardware, Program,
	// Tables, State and Packet are always available.
	Properties map[string][]evidence.Detail
	// PolicyID stamps the compiled pera policy.
	PolicyID uint64
}

// Errors from compilation.
var (
	ErrNoBinding   = errors.New("nac: policy does not bind to path")
	ErrBadSegment  = errors.New("nac: unsupported segment structure")
	ErrGuardFails  = errors.New("nac: bind-time guard failed")
	ErrUnknownTest = errors.New("nac: unknown guard test")
)

var builtinProps = map[string][]evidence.Detail{
	"Hardware": {evidence.DetailHardware},
	"Program":  {evidence.DetailProgram},
	"Tables":   {evidence.DetailTables},
	"State":    {evidence.DetailProgState},
	"Packet":   {evidence.DetailPackets},
}

// serviceASPs mark an atom as an appraiser-service phrase rather than a
// path hop.
var serviceASPs = map[string]bool{
	"appraise": true, "store": true, "retrieve": true, "certify": true,
}

// atom is one @place phrase extracted from a segment.
type atom struct {
	place   string
	guard   string       // test name guarding the phrase ("" = none)
	body    copland.Term // the phrase inside @place [...]
	service bool         // appraiser-service atom (not on the path)
}

// flatten extracts the ordered atoms of a segment. Segments must be
// (possibly guarded) @place phrases composed with ->, -<-, or -~-.
func flatten(t copland.Term) ([]atom, error) {
	switch n := t.(type) {
	case *copland.At:
		a := atom{place: n.Place, body: n.Body}
		if g, ok := n.Body.(*copland.Guard); ok {
			a.guard = g.Test
			a.body = g.Body
		}
		a.service = isServiceBody(a.body)
		return []atom{a}, nil
	case *copland.Guard:
		inner, err := flatten(n.Body)
		if err != nil {
			return nil, err
		}
		if len(inner) > 0 && inner[0].guard == "" {
			inner[0].guard = n.Test
		}
		return inner, nil
	case *copland.LSeq:
		return flatten2(n.L, n.R)
	case *copland.BSeq:
		return flatten2(n.L, n.R)
	case *copland.BPar:
		return flatten2(n.L, n.R)
	default:
		return nil, fmt.Errorf("%w: segment atom %T (%s)", ErrBadSegment, t, t)
	}
}

func flatten2(l, r copland.Term) ([]atom, error) {
	la, err := flatten(l)
	if err != nil {
		return nil, err
	}
	ra, err := flatten(r)
	if err != nil {
		return nil, err
	}
	return append(la, ra...), nil
}

// isServiceBody reports whether a phrase is an appraiser-service action
// chain (appraise -> store(n), retrieve(n), ...).
func isServiceBody(t copland.Term) bool {
	switch n := t.(type) {
	case *copland.ASP:
		return serviceASPs[n.Name]
	case *copland.LSeq:
		return isServiceBody(n.L)
	case *copland.Guard:
		return isServiceBody(n.Body)
	default:
		return false
	}
}

// attestSpec summarizes what an attestation phrase demands.
type attestSpec struct {
	claims []evidence.Detail
	hash   bool
	sign   bool
}

// errNotAttest is the quiet-mode classification failure: bodyKind probes
// every atom through parseAttest during binding, and formatting a rich
// error for the common "this is a host phrase" outcome was pure waste.
var errNotAttest = errors.New("nac: not an attest phrase")

// parseAttest interprets an atom body of the shape
// `attest(args) target -> # -> !` (any subset of the #/! suffix). A bare
// `!` body (AP3's @peer1 [Peer1 |> !]) yields an empty-claim signing
// spec.
func parseAttest(t copland.Term, props map[string][]evidence.Detail) (*attestSpec, error) {
	return parseAttestQ(t, props, false)
}

// parseAttestQ is parseAttest with a quiet mode that returns the static
// errNotAttest instead of formatted errors, for classification probes.
func parseAttestQ(t copland.Term, props map[string][]evidence.Detail, quiet bool) (*attestSpec, error) {
	spec := &attestSpec{}
	var walk func(copland.Term) error
	walk = func(t copland.Term) error {
		switch n := t.(type) {
		case *copland.LSeq:
			if err := walk(n.L); err != nil {
				return err
			}
			return walk(n.R)
		case *copland.ASP:
			switch n.Name {
			case copland.HashName:
				spec.hash = true
				return nil
			case copland.SigName:
				spec.sign = true
				return nil
			case copland.CopyName:
				return nil
			case "attest":
				names := append([]string(nil), n.Args...)
				if n.Target != "" {
					names = append(names, n.Target)
				}
				if n.SubTerm != nil {
					// attest(Hardware -~- Program): collect ASP names.
					copland.Walk(n.SubTerm, func(s copland.Term) bool {
						if a, ok := s.(*copland.ASP); ok {
							names = append(names, a.Name)
						}
						return true
					})
				}
				for _, name := range names {
					if ds, ok := props[name]; ok {
						spec.claims = append(spec.claims, ds...)
						continue
					}
					if ds, ok := builtinProps[name]; ok {
						spec.claims = append(spec.claims, ds...)
						continue
					}
					// The conventional nonce parameter is freshness
					// binding, not a claim.
					if name == "n" {
						continue
					}
					if quiet {
						return errNotAttest
					}
					return fmt.Errorf("nac: unknown attest property %q", name)
				}
				return nil
			default:
				if quiet {
					return errNotAttest
				}
				return fmt.Errorf("%w: hop action %q", ErrBadSegment, n.Name)
			}
		default:
			if quiet {
				return errNotAttest
			}
			return fmt.Errorf("%w: hop phrase %T", ErrBadSegment, t)
		}
	}
	if err := walk(t); err != nil {
		return nil, err
	}
	return spec, nil
}

// segInfo is a pre-processed segment.
type segInfo struct {
	appraiser string
	repeated  bool   // single-variable starred segment (∀hop)
	repVar    string // the per-hop variable
	pathAtoms []atom // non-service atoms in order
}

// oblSrc records one matched hop atom pending materialization.
type oblSrc struct {
	place string // "" for replicated
	atom  atom
	appr  string
}

// hostSrc records one matched endpoint atom.
type hostSrc struct {
	place string
	atom  atom
}

// binder holds matcher state (backtracking over small paths).
type binder struct {
	policy   *copland.Policy
	path     []PathHop
	reg      TestRegistry
	segs     []segInfo
	bindings map[string]string
	obls     []oblSrc
	hosts    []hostSrc
}

func (b *binder) checkPlaceGuard(test, place string) error {
	if test == "" {
		return nil
	}
	spec, ok := b.reg[test]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownTest, test)
	}
	if spec.PlacePred != nil && !spec.PlacePred(place) {
		return fmt.Errorf("%w: %s at %s", ErrGuardFails, test, place)
	}
	return nil
}

// placeGuardOK is the boolean form of checkPlaceGuard for backtracking
// match attempts, where a failed guard just prunes a branch and the
// formatted error would be discarded.
func (b *binder) placeGuardOK(test, place string) bool {
	if test == "" {
		return true
	}
	spec, ok := b.reg[test]
	return ok && (spec.PlacePred == nil || spec.PlacePred(place))
}

func (b *binder) match(segIdx, atomIdx, pathPos int) bool {
	if segIdx == len(b.segs) {
		// Every attesting hop must be accounted for by the policy: an
		// unmatched PERA element after the pattern ends means the
		// binding does not describe this path.
		for _, h := range b.path[pathPos:] {
			if h.Attesting {
				return false
			}
		}
		return true
	}
	seg := &b.segs[segIdx]
	if seg.repeated {
		a := seg.pathAtoms[0]
		for end := pathPos; end <= len(b.path); end++ {
			ok := true
			for _, h := range b.path[pathPos:end] {
				if h.Attesting && !b.placeGuardOK(a.guard, h.Name) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			savedO := len(b.obls)
			b.obls = append(b.obls, oblSrc{place: "", atom: a, appr: seg.appraiser})
			b.bindings[seg.repVar] = "*"
			if b.match(segIdx+1, 0, end) {
				return true
			}
			b.obls = b.obls[:savedO]
			delete(b.bindings, seg.repVar)
		}
		return false
	}
	if atomIdx == len(seg.pathAtoms) {
		return b.match(segIdx+1, 0, pathPos)
	}
	a := seg.pathAtoms[atomIdx]
	isVar := slices.Contains(b.policy.Vars, a.place)
	kind := bodyKind(a.body)
	for pos := pathPos; pos < len(b.path); pos++ {
		h := b.path[pos]
		if b.hopMatches(a, isVar, kind, h) {
			if isVar {
				if prev, ok := b.bindings[a.place]; ok && prev != h.Name {
					// Conflicting rebinding: treat like a mismatch.
					if h.Attesting {
						return false
					}
					continue
				}
				b.bindings[a.place] = h.Name
			}
			savedO, savedH := len(b.obls), len(b.hosts)
			if h.Attesting && kind != bodyHost {
				b.obls = append(b.obls, oblSrc{place: h.Name, atom: a, appr: seg.appraiser})
			} else {
				b.hosts = append(b.hosts, hostSrc{place: h.Name, atom: a})
			}
			if b.match(segIdx, atomIdx+1, pos+1) {
				return true
			}
			b.obls, b.hosts = b.obls[:savedO], b.hosts[:savedH]
			if isVar {
				delete(b.bindings, a.place)
			}
		}
		// Only non-attesting hops may be passed over silently: an
		// attesting element the policy does not account for breaks the
		// binding — path attestation exists to notice exactly that.
		if h.Attesting {
			return false
		}
	}
	return false
}

// hopMatches reports whether atom a can bind hop h.
func (b *binder) hopMatches(a atom, isVar bool, kind int, h PathHop) bool {
	if !b.placeGuardOK(a.guard, h.Name) {
		return false
	}
	if !isVar && h.Name != a.place {
		return false
	}
	switch kind {
	case bodyAttest:
		// Attestation claims demand a PERA dataplane.
		return h.Attesting
	case bodySign:
		// Bare !/# phrases need a signing identity of some kind.
		return h.Attesting || h.CanSign
	default: // bodyHost
		// Host-side Copland phrases run on signing end systems.
		return h.CanSign && !h.Attesting
	}
}

// Body kinds for matching.
const (
	bodyHost   = iota // arbitrary Copland phrase: runs at an end system
	bodySign          // bare !/#/_ chain: needs any signing identity
	bodyAttest        // contains attest claims: needs a PERA dataplane
)

// bodyKind classifies an atom body for capability matching.
func bodyKind(t copland.Term) int {
	hasAttest := false
	copland.Walk(t, func(n copland.Term) bool {
		if a, ok := n.(*copland.ASP); ok && a.Name == "attest" {
			hasAttest = true
		}
		return true
	})
	if hasAttest {
		return bodyAttest
	}
	if _, err := parseAttestQ(t, builtinProps, true); err == nil {
		return bodySign
	}
	return bodyHost
}

// Compile binds policy against path and produces the executable pieces.
func Compile(policy *copland.Policy, path []PathHop, reg TestRegistry, opts Options) (*Compiled, error) {
	props := map[string][]evidence.Detail{}
	for k, v := range opts.Properties {
		props[k] = v
	}

	b := &binder{policy: policy, path: path, reg: reg, bindings: map[string]string{}}
	for i, segTerm := range policy.Segments {
		atoms, err := flatten(segTerm)
		if err != nil {
			return nil, err
		}
		si := segInfo{}
		for _, a := range atoms {
			if a.service {
				si.appraiser = a.place
			} else {
				si.pathAtoms = append(si.pathAtoms, a)
			}
		}
		if i < len(policy.Segments)-1 && len(si.pathAtoms) == 1 && slices.Contains(policy.Vars, si.pathAtoms[0].place) {
			si.repeated = true
			si.repVar = si.pathAtoms[0].place
		}
		b.segs = append(b.segs, si)
	}

	if !b.match(0, 0, 0) {
		return nil, fmt.Errorf("%w: %s over path %v", ErrNoBinding, policy.RelyingParty, pathNames(path))
	}

	out := &Compiled{
		Policy:   &pera.Policy{ID: opts.PolicyID, Nonce: opts.Nonce},
		Bindings: map[string]string{},
	}
	for _, o := range b.obls {
		spec, err := parseAttest(o.atom.body, props)
		if err != nil {
			return nil, err
		}
		obl := pera.Obligation{
			Place:        o.place,
			Claims:       spec.claims,
			HashEvidence: spec.hash,
			SignEvidence: spec.sign,
			Appraiser:    o.appr,
		}
		if o.atom.guard != "" {
			obl.Guards = reg[o.atom.guard].PacketGuards
		}
		out.Policy.Obls = append(out.Policy.Obls, obl)
	}
	for _, h := range b.hosts {
		out.HostTerms = append(out.HostTerms, HostTerm{Place: h.place, Term: lower(h.atom.body, b.bindings)})
	}
	for k, v := range b.bindings {
		out.Bindings[k] = v
	}
	return out, nil
}

func pathNames(path []PathHop) []string {
	out := make([]string, len(path))
	for i, h := range path {
		out[i] = h.Name
	}
	return out
}

// lower turns a host phrase into plain Copland for the VM: guards are
// stripped (their place predicates were evaluated at bind time; packet
// guards are meaningless on hosts) and bound variables become places.
func lower(t copland.Term, bind map[string]string) copland.Term {
	switch n := t.(type) {
	case *copland.Guard:
		return lower(n.Body, bind)
	case *copland.ASP:
		cp := *n
		if v, ok := bind[cp.TargetPlace]; ok {
			cp.TargetPlace = v
		}
		if n.SubTerm != nil {
			cp.SubTerm = lower(n.SubTerm, bind)
		}
		return &cp
	case *copland.At:
		place := n.Place
		if v, ok := bind[place]; ok {
			place = v
		}
		return &copland.At{Place: place, Body: lower(n.Body, bind)}
	case *copland.LSeq:
		return &copland.LSeq{L: lower(n.L, bind), R: lower(n.R, bind)}
	case *copland.BSeq:
		return &copland.BSeq{LFlag: n.LFlag, RFlag: n.RFlag, L: lower(n.L, bind), R: lower(n.R, bind)}
	case *copland.BPar:
		return &copland.BPar{LFlag: n.LFlag, RFlag: n.RFlag, L: lower(n.L, bind), R: lower(n.R, bind)}
	default:
		return t
	}
}

// PathFromNetwork derives the PathHop list for the shortest path between
// two nodes in a netsim network, marking PERA switches as attesting.
func PathFromNetwork(n *netsim.Network, src, dst string) []PathHop {
	var hops []PathHop
	for _, name := range n.ShortestPath(src, dst) {
		node, ok := n.Node(name)
		if !ok {
			continue
		}
		_, attesting := node.(*pera.Switch)
		_, isHost := node.(*netsim.Host)
		hops = append(hops, PathHop{Name: name, Attesting: attesting, CanSign: attesting || isHost})
	}
	return hops
}
