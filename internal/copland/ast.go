// Package copland implements the Copland remote-attestation policy
// language used by the paper (§4.2): an abstract syntax of attestation
// protocol terms, a concrete ASCII syntax with parser, an evidence
// semantics (the Copland Virtual Machine), and a static trust analysis
// that detects measurement-reordering ("repair") attacks of the kind
// described by Ramsdell et al. and reproduced in the paper's bank example.
//
// The ASCII concrete syntax follows the Copland literature:
//
//	*bank<n>: @ks [av us bmon -> !] -<- @us [bmon us exts -> !]
//
//	policy  := header ('forall' NAME (',' NAME)* ':')? term ('*=>' term)*
//	request := header term
//	header  := '*' NAME ('<' NAME (',' NAME)* '>' | (',' NAME)+)? ':'
//	term    := branch
//	branch  := linear (FLAG ('<'|'~') FLAG linear)*      left-assoc
//	linear  := unary ('->' unary)*                        left-assoc
//	unary   := '@' place '[' term ']' | '(' term ')' | NAME '|>' term | asp
//	asp     := '!' | '#' | '_' | NAME ['(' inner ')'] [NAME [NAME]]
//
// where FLAG is '+' or '-', `-<-` is sequential branching and `-~-`
// parallel branching with evidence-splitting flags, `->` pipes evidence,
// `!` signs, `#` hashes, `_` copies. An ASP written `av us bmon` is the
// measurer av measuring target bmon at place us; `attest(n) X` passes the
// parameter n and measures target X; `attest(Hardware -~- Program)` runs
// the parenthesized subterm and applies attest to its evidence.
//
// The paper's network-aware extensions (§5.1, Table 1) share this
// grammar. `K |> term` (NetKAT's test prefix) runs term only where test
// K holds; its body extends as far right as a term does. A Policy binds
// place variables with `forall`, so it need not name concrete switches,
// and joins path segments with `*=>` (NetKAT's Kleene star): the segment
// to its left holds for zero or more hops. `forall` is the binder only
// when NAME and then ',' or ':' follow it; anywhere else it is an
// ordinary name. Guards and variables are resolved against a concrete
// network by internal/nac; the VM refuses an unresolved guard, and
// Analyze looks through guards.
package copland

import (
	"fmt"
	"strings"
)

// Term is a Copland protocol term.
type Term interface {
	fmt.Stringer
	isTerm()
}

// SigName, HashName and CopyName are the reserved ASP names for the
// built-in `!`, `#` and `_` operations.
const (
	SigName  = "!"
	HashName = "#"
	CopyName = "_"
)

// ASP (Attestation Service Provider) is a primitive action: a measurement,
// a transformation such as certify/store, or one of the built-ins.
type ASP struct {
	Name        string
	Args        []string // simple parameters, e.g. the nonce name in certify(n)
	TargetPlace string   // place of the measured target ("" if none)
	Target      string   // measured target ("" if none)
	SubTerm     Term     // non-nil for f(term): run term, apply f to its evidence
}

// At runs Body at the named Place.
type At struct {
	Place string
	Body  Term
}

// LSeq pipes the evidence of L into R (the paper's -> operator).
type LSeq struct {
	L, R Term
}

// Flag controls whether a branch receives the evidence accrued so far
// (true, '+') or starts empty (false, '-').
type Flag bool

func (f Flag) String() string {
	if f {
		return "+"
	}
	return "-"
}

// BSeq evaluates L then R (sequential branching, the `<` operator); their
// results are combined as sequential evidence.
type BSeq struct {
	LFlag, RFlag Flag
	L, R         Term
}

// BPar evaluates L and R in parallel (the `~` operator); their results are
// combined as parallel evidence. Parallel branches give an active
// adversary interleaving freedom — see Analyze.
type BPar struct {
	LFlag, RFlag Flag
	L, R         Term
}

// Guard is the `|>` operator: Body runs only where test Test holds.
type Guard struct {
	Test string
	Body Term
}

func (*ASP) isTerm()   {}
func (*At) isTerm()    {}
func (*LSeq) isTerm()  {}
func (*BSeq) isTerm()  {}
func (*BPar) isTerm()  {}
func (*Guard) isTerm() {}

func (a *ASP) String() string {
	var b strings.Builder
	b.WriteString(a.Name)
	if a.SubTerm != nil {
		fmt.Fprintf(&b, "(%s)", a.SubTerm)
	} else if len(a.Args) > 0 {
		fmt.Fprintf(&b, "(%s)", strings.Join(a.Args, ", "))
	}
	if a.TargetPlace != "" {
		fmt.Fprintf(&b, " %s", a.TargetPlace)
	}
	if a.Target != "" {
		fmt.Fprintf(&b, " %s", a.Target)
	}
	return b.String()
}

func (a *At) String() string { return fmt.Sprintf("@%s [%s]", a.Place, a.Body) }

func (l *LSeq) String() string { return fmt.Sprintf("%s -> %s", wrap(l.L), wrap(l.R)) }

func (s *BSeq) String() string {
	return fmt.Sprintf("%s %s<%s %s", wrap(s.L), s.LFlag, s.RFlag, wrap(s.R))
}

func (p *BPar) String() string {
	return fmt.Sprintf("%s %s~%s %s", wrap(p.L), p.LFlag, p.RFlag, wrap(p.R))
}

func (g *Guard) String() string { return fmt.Sprintf("%s |> %s", g.Test, wrap(g.Body)) }

// wrap parenthesizes composite subterms so String output re-parses to the
// same tree.
func wrap(t Term) string {
	switch t.(type) {
	case *LSeq, *BSeq, *BPar, *Guard:
		return "(" + t.String() + ")"
	default:
		return t.String()
	}
}

// Request is a top-level phrase `*RP<params>: term` — the relying party RP
// requests evidence for term, binding the named parameters (the first
// parameter conventionally being the nonce).
type Request struct {
	RelyingParty string
	Params       []string
	Body         Term
}

func (r *Request) String() string { return renderHeader(r.RelyingParty, r.Params) + r.Body.String() }

// Policy is a network-aware top-level phrase: a request whose
// forall-bound place variables Vars stand for path elements, and whose
// path segments are joined by `*=>`. Segment i *=> segment i+1 means:
// segment i holds across zero or more hops, after which segment i+1's
// pattern continues.
type Policy struct {
	RelyingParty string
	Params       []string
	Vars         []string
	Segments     []Term
}

func (p *Policy) String() string {
	var b strings.Builder
	b.WriteString(renderHeader(p.RelyingParty, p.Params))
	if len(p.Vars) > 0 {
		fmt.Fprintf(&b, "forall %s: ", strings.Join(p.Vars, ", "))
	}
	for i, s := range p.Segments {
		if i > 0 {
			b.WriteString(" *=> ")
		}
		b.WriteString(wrap(s))
	}
	return b.String()
}

// renderHeader renders the `*RP<params>: ` prefix of Request and Policy.
func renderHeader(rp string, params []string) string {
	if len(params) == 0 {
		return "*" + rp + ": "
	}
	return fmt.Sprintf("*%s<%s>: ", rp, strings.Join(params, ", "))
}

// Sig returns the built-in signature ASP.
func Sig() *ASP { return &ASP{Name: SigName} }

// Hsh returns the built-in hash ASP.
func Hsh() *ASP { return &ASP{Name: HashName} }

// Cpy returns the built-in copy (identity) ASP.
func Cpy() *ASP { return &ASP{Name: CopyName} }

// Measure builds the `measurer targetPlace target` measurement ASP.
func Measure(measurer, targetPlace, target string) *ASP {
	return &ASP{Name: measurer, TargetPlace: targetPlace, Target: target}
}

// Walk visits every subterm of t in preorder. Returning false from visit
// stops descent into that subterm.
func Walk(t Term, visit func(Term) bool) {
	if t == nil || !visit(t) {
		return
	}
	switch n := t.(type) {
	case *ASP:
		if n.SubTerm != nil {
			Walk(n.SubTerm, visit)
		}
	case *At:
		Walk(n.Body, visit)
	case *Guard:
		Walk(n.Body, visit)
	case *LSeq:
		Walk(n.L, visit)
		Walk(n.R, visit)
	case *BSeq:
		Walk(n.L, visit)
		Walk(n.R, visit)
	case *BPar:
		Walk(n.L, visit)
		Walk(n.R, visit)
	}
}

// Places returns every place name mentioned by @ or as a measurement
// target place, in first-seen order.
func Places(t Term) []string {
	var out []string
	seen := map[string]bool{}
	add := func(p string) {
		if p != "" && !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	Walk(t, func(n Term) bool {
		switch v := n.(type) {
		case *At:
			add(v.Place)
		case *ASP:
			add(v.TargetPlace)
		}
		return true
	})
	return out
}
