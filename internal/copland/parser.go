package copland

import (
	"fmt"
	"sync"
)

// Parse parses a single Copland term.
func Parse(input string) (Term, error) { return parseAll(input, (*parser).term) }

// ParseRequest parses a top-level `*RP<params>: term` phrase. Parameters
// may also be given in the paper's comma style, `*RP, n: term`.
func ParseRequest(input string) (*Request, error) { return parseAll(input, (*parser).request) }

// parseMemo caches successfully parsed policies by source text. The
// shipped policies (AP1..AP3) are constants re-parsed on every compile —
// per-testbed in the throughput harness — and lexing dominated the parse
// cost. Parsed ASTs are never mutated (nac.Compile only reads them), so
// returning the shared *Policy is safe; the cache is bounded and dropped
// wholesale if arbitrary inputs ever push it past the cap.
var parseMemo struct {
	sync.Mutex
	m map[string]*Policy
}

const parseMemoCap = 64

// ParsePolicy parses a top-level network-aware policy,
// `*RP<params>: forall vars: segment *=> segment ...`. The returned
// Policy may be shared across calls with the same input; callers must
// treat it as immutable.
func ParsePolicy(input string) (*Policy, error) {
	parseMemo.Lock()
	pol, ok := parseMemo.m[input]
	parseMemo.Unlock()
	if ok {
		return pol, nil
	}
	pol, err := parseAll(input, (*parser).policy)
	if err != nil {
		return nil, err
	}
	parseMemo.Lock()
	if parseMemo.m == nil || len(parseMemo.m) >= parseMemoCap {
		parseMemo.m = make(map[string]*Policy, 8)
	}
	parseMemo.m[input] = pol
	parseMemo.Unlock()
	return pol, nil
}

// parseAll parses all of input with rule.
func parseAll[T any](input string, rule func(*parser) (T, error)) (T, error) {
	var zero T
	p, err := newParser(input)
	if err != nil {
		return zero, err
	}
	v, err := rule(p)
	if err == nil {
		err = p.expect(tokEOF)
	}
	if err != nil {
		return zero, err
	}
	return v, nil
}

type parser struct {
	input string
	toks  []token
	pos   int
}

func newParser(input string) (*parser, error) {
	toks, err := lex(input)
	if err != nil {
		return nil, err
	}
	return &parser{input: input, toks: toks}, nil
}

func (p *parser) peek() token       { return p.toks[p.pos] }
func (p *parser) next() token       { t := p.toks[p.pos]; p.pos++; return t }
func (p *parser) at(k tokKind) bool { return p.peek().kind == k }

func (p *parser) errf(format string, args ...any) error {
	return &SyntaxError{Input: p.input, Pos: p.peek().pos, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) expect(k tokKind) error {
	if !p.at(k) {
		return p.errf("expected %v, found %v %q", k, p.peek().kind, p.peek().text)
	}
	p.next()
	return nil
}

func (p *parser) ident() (string, error) {
	if !p.at(tokIdent) {
		return "", p.errf("expected identifier, found %v %q", p.peek().kind, p.peek().text)
	}
	return p.next().text, nil
}

// lookahead returns the kind of the token i places past the current one.
// Callers look only past tokens that are not EOF, which ends the stream.
func (p *parser) lookahead(i int) tokKind { return p.toks[p.pos+i].kind }

// names := IDENT (',' IDENT)*
func (p *parser) names() ([]string, error) {
	var out []string
	for {
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		out = append(out, name)
		if !p.at(tokComma) {
			return out, nil
		}
		p.next()
	}
}

// header := '*' IDENT ('<' names '>' | ',' names)? ':'
func (p *parser) header() (rp string, params []string, err error) {
	if err = p.expect(tokStar); err != nil {
		return "", nil, err
	}
	if rp, err = p.ident(); err != nil {
		return "", nil, err
	}
	switch {
	case p.at(tokLess):
		p.next()
		if params, err = p.names(); err == nil {
			err = p.expect(tokGT)
		}
	case p.at(tokComma):
		p.next()
		params, err = p.names()
	}
	if err == nil {
		err = p.expect(tokColon)
	}
	return rp, params, err
}

// request := header term
func (p *parser) request() (*Request, error) {
	rp, params, err := p.header()
	if err != nil {
		return nil, err
	}
	body, err := p.term()
	if err != nil {
		return nil, err
	}
	return &Request{RelyingParty: rp, Params: params, Body: body}, nil
}

// policy := header ('forall' names ':')? term ('*=>' term)*
//
// `forall` is the binder only when IDENT and then ',' or ':' follow it,
// so a policy whose first segment is the ASP forall still re-parses.
func (p *parser) policy() (*Policy, error) {
	rp, params, err := p.header()
	if err != nil {
		return nil, err
	}
	pol := &Policy{RelyingParty: rp, Params: params}
	if p.at(tokIdent) && p.peek().text == "forall" && p.lookahead(1) == tokIdent &&
		(p.lookahead(2) == tokComma || p.lookahead(2) == tokColon) {
		p.next()
		if pol.Vars, err = p.names(); err != nil {
			return nil, err
		}
		if err := p.expect(tokColon); err != nil {
			return nil, err
		}
	}
	for {
		seg, err := p.term()
		if err != nil {
			return nil, err
		}
		pol.Segments = append(pol.Segments, seg)
		if !p.at(tokStarArrow) {
			return pol, nil
		}
		p.next()
	}
}

// term := branch
func (p *parser) term() (Term, error) { return p.branch() }

// branch := linear (FLAG ('<'|'~') FLAG linear)*
func (p *parser) branch() (Term, error) {
	left, err := p.linear()
	if err != nil {
		return nil, err
	}
	for p.at(tokPlus) || p.at(tokMinus) {
		lf := Flag(p.next().kind == tokPlus)
		var par bool
		switch p.peek().kind {
		case tokLess, tokGT:
			// '<' is the Copland sequential branch; the paper also
			// renders it '>' in expression (3). Both parse to BSeq.
			par = false
		case tokTilde:
			par = true
		default:
			return nil, p.errf("expected '<', '>' or '~' after branch flag, found %q", p.peek().text)
		}
		p.next()
		var rf Flag
		switch p.peek().kind {
		case tokPlus:
			rf = true
		case tokMinus:
			rf = false
		default:
			return nil, p.errf("expected '+' or '-' flag after branch operator, found %q", p.peek().text)
		}
		p.next()
		right, err := p.linear()
		if err != nil {
			return nil, err
		}
		if par {
			left = &BPar{LFlag: lf, RFlag: rf, L: left, R: right}
		} else {
			left = &BSeq{LFlag: lf, RFlag: rf, L: left, R: right}
		}
	}
	return left, nil
}

// linear := unary ('->' unary)*
func (p *parser) linear() (Term, error) {
	left, err := p.unary()
	if err != nil {
		return nil, err
	}
	for p.at(tokArrow) {
		p.next()
		right, err := p.unary()
		if err != nil {
			return nil, err
		}
		left = &LSeq{L: left, R: right}
	}
	return left, nil
}

// unary := '@' IDENT '[' term ']' | '(' term ')' | IDENT '|>' term | asp
func (p *parser) unary() (Term, error) {
	switch p.peek().kind {
	case tokAt:
		p.next()
		place, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expect(tokLBrack); err != nil {
			return nil, err
		}
		body, err := p.term()
		if err != nil {
			return nil, err
		}
		if err := p.expect(tokRBrack); err != nil {
			return nil, err
		}
		return &At{Place: place, Body: body}, nil
	case tokLParen:
		p.next()
		t, err := p.term()
		if err != nil {
			return nil, err
		}
		if err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return t, nil
	case tokIdent:
		if p.lookahead(1) != tokGuard {
			return p.asp()
		}
		test := p.next().text
		p.next() // |>
		body, err := p.term()
		if err != nil {
			return nil, err
		}
		return &Guard{Test: test, Body: body}, nil
	default:
		return p.asp()
	}
}

// asp := '!' | '#' | '_' | IDENT ['(' inner ')'] [IDENT [IDENT]]
func (p *parser) asp() (Term, error) {
	switch p.peek().kind {
	case tokBang:
		p.next()
		return Sig(), nil
	case tokHash:
		p.next()
		return Hsh(), nil
	case tokUnder:
		p.next()
		return Cpy(), nil
	case tokIdent:
		name := p.next().text
		a := &ASP{Name: name}
		if p.at(tokLParen) {
			p.next()
			if err := p.aspInner(a); err != nil {
				return nil, err
			}
			if err := p.expect(tokRParen); err != nil {
				return nil, err
			}
		}
		// Optional measurement target: one ident = target, two idents =
		// targetPlace target (the `av us bmon` form).
		if p.at(tokIdent) {
			first := p.next().text
			if p.at(tokIdent) {
				a.TargetPlace = first
				a.Target = p.next().text
			} else {
				a.Target = first
			}
		}
		return a, nil
	default:
		return nil, p.errf("expected a term, found %v %q", p.peek().kind, p.peek().text)
	}
}

// aspInner parses the contents of an ASP's parentheses: either a
// comma-separated list of simple identifiers (arguments) or a full
// subterm, e.g. attest(Hardware -~- Program).
func (p *parser) aspInner(a *ASP) error {
	// Empty argument list: f().
	if p.at(tokRParen) {
		return nil
	}
	start := p.pos
	// Try the simple-arguments shape first.
	var args []string
	for {
		if !p.at(tokIdent) {
			args = nil
			break
		}
		args = append(args, p.next().text)
		if p.at(tokComma) {
			p.next()
			continue
		}
		break
	}
	if args != nil && p.at(tokRParen) {
		a.Args = args
		return nil
	}
	// Not a plain argument list — re-parse as a subterm.
	p.pos = start
	t, err := p.term()
	if err != nil {
		return err
	}
	a.SubTerm = t
	return nil
}
