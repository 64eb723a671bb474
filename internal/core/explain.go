package core

import (
	"errors"
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/progress"
)

// WriteExplain renders a per-query explain report: identity header,
// ASCII delivery timeline from the curve digest, per-site contribution
// table (delivered / shipped / pruned, and with stats each site's wait and
// service time), the per-phase timing breakdown, and the query_id
// cross-link into the flight recorder and the sites' request logs. stats
// may be nil (the query_id, the algorithm of a protocol round, the time
// split and the phase breakdown are then unknown); rep must come from a
// completed query.
func WriteExplain(w io.Writer, rep *Report, stats *QueryStats) error {
	if rep == nil || rep.Curve == nil {
		return errors.New("explain: no completed report")
	}
	d := rep.Curve
	var qid uint64
	algo := rep.Source.String()
	if stats != nil {
		qid = stats.Trace.QueryID
		if rep.Source == SourceProtocol {
			algo = stats.Algorithm.String()
		}
	}
	fmt.Fprintf(w, "query %s  algorithm %s: %d result(s) in %s\n",
		obs.QueryID(qid), algo, d.Results, rep.Elapsed)
	if rep.Resumed > 0 {
		fmt.Fprintf(w, "resumed: %d result(s) from the materialized answer, the rest from a round over the band below its floor\n", rep.Resumed)
	}
	fmt.Fprintf(w, "progress: ttfr %s  ttlast %s  auc(time) %.3f  auc(bandwidth) %.3f  tuples %d\n",
		fmtNano(d.TTFirstNS), fmtNano(d.TTLastNS), d.AUCTime, d.AUCBandwidth, d.TuplesTotal)

	if pts := d.Checkpoints(); len(pts) > 0 {
		fmt.Fprintf(w, "\ndelivery curve (k-th result · elapsed · cumulative tuples):\n")
		const width = 40
		for _, p := range pts {
			bar := 1
			if rep.Elapsed > 0 {
				bar = int(p.NS * width / int64(rep.Elapsed))
				if bar < 1 {
					bar = 1
				}
				if bar > width {
					bar = width
				}
			}
			fmt.Fprintf(w, "  k=%-6d %10s %8d tuples  |%s\n",
				p.K, fmtNano(p.NS), p.Tuples, barString(bar))
		}
	}

	fmt.Fprintf(w, "\nper-site contribution:\n")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "site\tdelivered\tshipped\tpruned\twait\tservice")
	sites := len(rep.PerSite)
	if int(d.Sites) > sites {
		sites = int(d.Sites)
	}
	for i := 0; i < sites; i++ {
		var shipped, pruned int64
		if i < len(rep.PerSite) {
			shipped, pruned = rep.PerSite[i].Shipped, rep.PerSite[i].Pruned
		}
		delivered := "-"
		if i < progress.MaxSites {
			delivered = fmt.Sprintf("%d", d.PerSite[i])
		}
		wait, service := "-", "-"
		if stats != nil && i < len(stats.Trace.Sites) {
			st := stats.Trace.Sites[i]
			wait, service = fmtNano(st.CallNS-st.ServiceNS), fmtNano(st.ServiceNS)
		}
		fmt.Fprintf(tw, "%d\t%s\t%d\t%d\t%s\t%s\n", i, delivered, shipped, pruned, wait, service)
	}
	if d.SitesTruncated {
		fmt.Fprintf(tw, "(delivered counts beyond site %d folded into the last row)\t\t\t\t\t\n", progress.MaxSites-1)
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	if stats != nil {
		fmt.Fprintf(w, "\nphase breakdown:\n")
		if err := stats.Trace.WriteTable(w); err != nil {
			return err
		}
	}

	_, err := fmt.Fprintf(w, "\ncross-link: query_id %s indexes /debug/flightz records and the sites' request logs\n",
		obs.QueryID(qid))
	return err
}

// fmtNano renders a nanosecond count as a rounded duration, "-" for 0.
func fmtNano(ns int64) string {
	if ns <= 0 {
		return "-"
	}
	d := time.Duration(ns)
	switch {
	case d >= time.Second:
		return d.Round(10 * time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(10 * time.Microsecond).String()
	default:
		return d.Round(100 * time.Nanosecond).String()
	}
}

// barString returns an n-character ASCII bar (n clamped to [0, 40]).
func barString(n int) string {
	const full = "########################################"
	if n < 0 {
		n = 0
	}
	if n > len(full) {
		n = len(full)
	}
	return full[:n]
}
