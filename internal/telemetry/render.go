package telemetry

// Span-tree rendering for `attestctl trace`: merge span dumps fetched
// from several processes' /trace endpoints into one causal tree and
// print it with a critical-path latency breakdown.

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// MergeSpans combines span dumps from multiple processes into one
// chronological list, dropping duplicates (the same span fetched from
// two endpoints, or fetched twice) by span ID.
func MergeSpans(groups ...[]Span) []Span {
	seen := make(map[string]bool)
	var out []Span
	for _, g := range groups {
		for _, s := range g {
			if s.SpanID != "" {
				if seen[s.SpanID] {
					continue
				}
				seen[s.SpanID] = true
			}
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}

// RenderTrace prints the causal tree of one trace's spans — roots are
// spans whose parent is absent from the set, children indent beneath
// them in start order — followed by the critical-path breakdown: the
// chain of spans that finished last at each level, with each hop's
// share of the end-to-end latency. Returns the number of spans printed.
func RenderTrace(w io.Writer, spans []Span) int {
	if len(spans) == 0 {
		fmt.Fprintln(w, "no spans")
		return 0
	}
	byID := make(map[string]*Span, len(spans))
	for i := range spans {
		if id := spans[i].SpanID; id != "" {
			byID[id] = &spans[i]
		}
	}
	children := make(map[string][]*Span)
	var roots []*Span
	for i := range spans {
		s := &spans[i]
		if s.ParentID != "" && byID[s.ParentID] != nil {
			children[s.ParentID] = append(children[s.ParentID], s)
		} else {
			roots = append(roots, s)
		}
	}
	order := func(list []*Span) {
		sort.Slice(list, func(i, j int) bool {
			if list[i].Start != list[j].Start {
				return list[i].Start < list[j].Start
			}
			return list[i].Seq < list[j].Seq
		})
	}
	order(roots)
	for _, kids := range children {
		order(kids)
	}

	var walk func(s *Span, prefix string, last bool)
	walk = func(s *Span, prefix string, last bool) {
		branch, next := "├─ ", "│  "
		if last {
			branch, next = "└─ ", "   "
		}
		fmt.Fprintf(w, "%s%s%s\n", prefix, branch, spanLine(s))
		kids := children[s.SpanID]
		for i, k := range kids {
			walk(k, prefix+next, i == len(kids)-1)
		}
	}
	for _, r := range roots {
		fmt.Fprintf(w, "trace %s  flow %s\n", r.TraceID, r.Flow)
		walk(r, "", true)
		renderCriticalPath(w, r, children)
	}
	return len(spans)
}

func spanLine(s *Span) string {
	line := fmt.Sprintf("%s/%s  %s", s.Place, s.Stage, fmtDur(s.Dur))
	if s.Note != "" {
		line += fmt.Sprintf("  %q", s.Note)
	}
	return line
}

// renderCriticalPath walks from the root always into the child that
// FINISHED last — the chain that gated the end-to-end latency — and
// attributes to each hop its self time (own duration minus the on-path
// child's) as a share of the root's duration.
func renderCriticalPath(w io.Writer, root *Span, children map[string][]*Span) {
	total := root.Dur
	if total <= 0 {
		return
	}
	type hop struct {
		span *Span
		self time.Duration
	}
	var path []hop
	cur := root
	for cur != nil {
		var next *Span
		for _, k := range children[cur.SpanID] {
			if next == nil || k.End() > next.End() {
				next = k
			}
		}
		self := cur.Dur
		if next != nil {
			self -= next.Dur
		}
		if self < 0 {
			self = 0
		}
		path = append(path, hop{cur, self})
		cur = next
	}
	if len(path) < 2 {
		return
	}
	fmt.Fprintf(w, "critical path (%s):\n", fmtDur(total))
	for _, h := range path {
		fmt.Fprintf(w, "  %5.1f%%  %s/%s  self %s of %s\n",
			100*float64(h.self)/float64(total), h.span.Place, h.span.Stage,
			fmtDur(h.self), fmtDur(h.span.Dur))
	}
}

func fmtDur(d time.Duration) string {
	switch {
	case d == 0:
		return "-"
	case d < time.Millisecond:
		return fmt.Sprintf("%.1fµs", float64(d)/1e3)
	case d < time.Second:
		return fmt.Sprintf("%.2fms", float64(d)/1e6)
	default:
		return d.Round(time.Millisecond).String()
	}
}
