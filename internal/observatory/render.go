package observatory

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// RenderTop writes the live places/links table attestctl top refreshes:
// one row per place with latency quantiles, cache and verify health, and
// the anomaly column, then the link rows and the localization verdict.
// A place known only from memo and audit pushes (the appraiser) has
// nothing for the table's columns; its health is one line under it.
func RenderTop(w io.Writer, s Snapshot) {
	fmt.Fprintf(w, "observatory %s — %d traces, %d verdicts, %d pushes\n\n",
		s.Collector, s.Traces, s.Verdicts, s.Pushes)
	fmt.Fprintf(w, "%-10s %7s %9s %9s %9s %6s %6s %7s %7s %8s %6s\n",
		"PLACE", "SPANS", "LAT-P50", "LAT-P95", "LAT-P99", "CACHE%", "VFAIL%", "OBS", "FAILS", "WIN-RATE", "ANOM")
	var pushOnly []PlaceHealth
	for _, p := range s.Places {
		if p.Spans == 0 && p.Observed == 0 && p.Packets == 0 && p.VerifyOps == 0 {
			pushOnly = append(pushOnly, p)
			continue
		}
		anom := "-"
		if p.Anomalous {
			anom = "FLAG"
		}
		fmt.Fprintf(w, "%-10s %7d %9s %9s %9s %6s %6s %7d %7d %8.2f %6s\n",
			p.Place, p.Spans,
			fmtNS(p.LatP50NS), fmtNS(p.LatP95NS), fmtNS(p.LatP99NS),
			fmtPct(p.CacheHitRate), fmtPct(p.VerifyFailRate),
			p.Observed, p.Fails, p.WindowRate, anom)
	}
	if len(pushOnly) > 0 {
		fmt.Fprintln(w)
		for _, p := range pushOnly {
			fmt.Fprintf(w, "%s (pushes only): memo %d hits, %d misses; audit %d records, %d dropped\n",
				p.Place, p.MemoHits, p.MemoMisses, p.AuditRecords, p.AuditDropped)
		}
	}
	if len(s.Links) > 0 {
		fmt.Fprintf(w, "\n%-22s %8s %10s\n", "LINK", "FRAMES", "EV-BYTES")
		for _, l := range s.Links {
			fmt.Fprintf(w, "%-22s %8d %10d\n", l.From+" -> "+l.To, l.Frames, l.EvBytes)
		}
	}
	if s.Localization != nil {
		fmt.Fprintf(w, "\nLOCALIZED: %s (window %.2f vs baseline %.2f, at verdict %d)\n",
			s.Localization.Place, s.Localization.WindowRate,
			s.Localization.BaselineRate, s.Localization.AtVerdict)
	} else {
		fmt.Fprintf(w, "\nno anomaly localized\n")
	}
}

// RenderPaths writes the n most recent end-to-end traces with per-hop
// timing bars (scaled to the slowest hop of each trace).
func RenderPaths(w io.Writer, s Snapshot, n int) {
	if n <= 0 || n > len(s.Paths) {
		n = len(s.Paths)
	}
	if n == 0 {
		fmt.Fprintln(w, "no path traces")
		return
	}
	for _, pt := range s.Paths[:n] {
		verdict := pt.Verdict
		if verdict == "" {
			verdict = "PENDING"
		}
		fmt.Fprintf(w, "trace %d  flow %s  %s", pt.Seq, shortFlow(pt.Flow), verdict)
		if pt.FailPlace != "" {
			fmt.Fprintf(w, " @ %s (%s)", pt.FailPlace, pt.FailStage)
		}
		if pt.Truncated {
			fmt.Fprint(w, "  [truncated]")
		}
		fmt.Fprintln(w)
		var max uint64
		for _, h := range pt.Hops {
			if h.TotalNS > max {
				max = h.TotalNS
			}
		}
		for _, h := range pt.Hops {
			bar := timingBar(h.TotalNS, max, 24)
			marks := ""
			if h.Verified() {
				marks += "V"
			}
			if h.Attested() {
				marks += "A"
			}
			fmt.Fprintf(w, "  %-10s %-24s %9s  ev+%-5d %-2s\n",
				h.Place, bar, fmtNS(float64(h.TotalNS)), h.EvBytes, marks)
		}
	}
}

// timingBar renders a proportional bar of width cells.
func timingBar(v, max uint64, width int) string {
	if max == 0 {
		return ""
	}
	n := int(uint64(width) * v / max)
	if n == 0 && v > 0 {
		n = 1
	}
	return strings.Repeat("█", n)
}

func fmtNS(ns float64) string {
	if ns == 0 {
		return "-"
	}
	return time.Duration(ns).Round(100 * time.Nanosecond).String()
}

func fmtPct(r float64) string {
	if r == 0 {
		return "-"
	}
	return fmt.Sprintf("%.0f%%", r*100)
}

func shortFlow(flow string) string {
	if len(flow) > 12 {
		return flow[:12] + "…"
	}
	return flow
}
