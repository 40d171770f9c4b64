package copland

import "fmt"

// Static trust analysis.
//
// §4.2 of the paper recounts the attack of Ramsdell et al. on the bank
// example: with the two measurements composed in *parallel*, an adversary
// holding userspace (but not kernelspace) control first runs the corrupt
// bmon to measure exts, "repairs" bmon, and only then lets av measure it —
// so av vouches for an agent that lied. Sequencing the measurement of
// bmon strictly *before* bmon's own measurement closes the window.
//
// Analyze reproduces this reasoning: every use of an agent as a measurer
// must be preceded (in the term's happens-before order) by a measurement
// *of* that agent at its executing place. Parallel branches provide no
// ordering, so a measurement in one arm of a `~` does not protect a use in
// the other arm.

// Status classifies one measurer use.
type Status uint8

const (
	// StatusProtected: a measurement of the agent happens before its use.
	StatusProtected Status = iota
	// StatusVulnerable: the agent is measured somewhere, but no
	// measurement is ordered before its use — the repair attack applies.
	StatusVulnerable
	// StatusUnmeasured: the agent is never measured at all; its
	// trustworthiness rests on assumption, not evidence.
	StatusUnmeasured
)

func (s Status) String() string {
	switch s {
	case StatusProtected:
		return "protected"
	case StatusVulnerable:
		return "vulnerable"
	case StatusUnmeasured:
		return "unmeasured"
	default:
		return fmt.Sprintf("status(%d)", uint8(s))
	}
}

// Finding reports the protection status of one measurer use.
type Finding struct {
	Agent  string // the measuring agent, e.g. "bmon"
	Place  string // where the agent executes
	Target string // what it measures
	Status Status
}

func (f Finding) String() string {
	return fmt.Sprintf("%s@%s measuring %s: %s", f.Agent, f.Place, f.Target, f.Status)
}

// Report is the result of Analyze.
type Report struct {
	Findings []Finding
}

// Vulnerable reports whether any use is vulnerable or unmeasured.
func (r *Report) Vulnerable() bool {
	for _, f := range r.Findings {
		if f.Status != StatusProtected {
			return true
		}
	}
	return false
}

// occ is one ASP occurrence with its execution place.
type occ struct {
	id    int
	place string
	asp   *ASP
}

// collector builds the occurrence list and the happens-before relation
// over occurrence ids.
type collector struct {
	occs   []occ
	before map[[2]int]bool
}

// TrustedMeasurers are agent names assumed trustworthy without measurement
// — roots of the measurement chain. Analysis treats their uses as
// protected. The paper's example trusts av (kernel-resident, assumed
// beyond the userspace adversary).
type AnalyzeOptions struct {
	TrustedMeasurers map[string]bool
	// RootPlace is the place at which the term starts executing (the
	// relying party). Defaults to "" which only matters for top-level
	// measurement ASPs outside any @.
	RootPlace string
}

// Analyze computes repair-attack findings for t.
func Analyze(t Term, opts AnalyzeOptions) *Report {
	c := &collector{before: make(map[[2]int]bool)}
	c.walk(opts.RootPlace, t)

	var rep Report
	for _, use := range c.occs {
		if use.asp.Target == "" {
			continue // not a measurement ASP
		}
		agent, place := use.asp.Name, use.place
		if opts.TrustedMeasurers[agent] || isBuiltin(agent) {
			continue
		}
		f := Finding{Agent: agent, Place: place, Target: use.asp.Target, Status: StatusUnmeasured}
		for _, m := range c.occs {
			if m.asp.Target != agent {
				continue
			}
			// A measurement of the agent counts if it names the agent's
			// executing place (or no place, meaning "wherever it runs").
			if m.asp.TargetPlace != "" && m.asp.TargetPlace != place {
				continue
			}
			if f.Status == StatusUnmeasured {
				f.Status = StatusVulnerable
			}
			if c.before[[2]int{m.id, use.id}] {
				f.Status = StatusProtected
				break
			}
		}
		rep.Findings = append(rep.Findings, f)
	}
	return &rep
}

func isBuiltin(name string) bool {
	return name == SigName || name == HashName || name == CopyName
}

// walk collects occurrences of subterm t executing at place and returns
// their ids.
func (c *collector) walk(place string, t Term) []int {
	switch n := t.(type) {
	case *ASP:
		var ids []int
		if n.SubTerm != nil {
			ids = c.walk(place, n.SubTerm)
		}
		id := len(c.occs)
		c.occs = append(c.occs, occ{id: id, place: place, asp: n})
		// Subterm events happen before the applying ASP.
		for _, s := range ids {
			c.before[[2]int{s, id}] = true
		}
		return append(ids, id)
	case *At:
		return c.walk(n.Place, n.Body)
	case *Guard:
		// A guard decides whether its body runs, not the order of the
		// body's events.
		return c.walk(place, n.Body)
	case *LSeq:
		l := c.walk(place, n.L)
		r := c.walk(place, n.R)
		c.order(l, r)
		return append(l, r...)
	case *BSeq:
		l := c.walk(place, n.L)
		r := c.walk(place, n.R)
		c.order(l, r)
		return append(l, r...)
	case *BPar:
		l := c.walk(place, n.L)
		r := c.walk(place, n.R)
		// No ordering between parallel arms: this is the attack surface.
		return append(l, r...)
	default:
		return nil
	}
}

// order records that everything in ls happens before everything in rs,
// closing transitively over what is already known. With the small terms
// of attestation policies the O(n²) closure is negligible.
func (c *collector) order(ls, rs []int) {
	for _, l := range ls {
		for _, r := range rs {
			c.before[[2]int{l, r}] = true
		}
	}
	// Transitive closure: anything before an l is before every r.
	for _, l := range ls {
		for i := range c.occs {
			if c.before[[2]int{i, l}] {
				for _, r := range rs {
					c.before[[2]int{i, r}] = true
				}
			}
		}
	}
}
