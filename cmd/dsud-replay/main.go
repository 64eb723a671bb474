// Command dsud-replay consumes black-box transcripts (.dstr files)
// recorded by the coordinator (dsud-query -record, or Options.Record on a
// cluster with a ClusterConfig.TranscriptDir).
//
// Replay mode re-runs the recorded query offline through the real round
// engine against stub sites that answer verbatim from the recording —
// no sockets, no data — and verifies the replay reproduces the pinned
// outcome exactly: skyline set and order, delivery ordinals, per-site
// shipped/pruned tallies, tuple/message/byte totals and the
// bandwidth-axis delivery-curve AUC. Any disagreement means the current
// build's protocol decisions differ from the recording's, and the exit
// status is nonzero:
//
//	dsud-replay query-0000abcd-1.dstr
//
// Diff mode compares two transcripts of the same query — typically one
// recorded by a known-good build and one by a suspect build — and
// localizes the regression to the first protocol round where the two
// disagree (plus header, per-phase message/byte and outcome deltas):
//
//	dsud-replay -diff good.dstr bad.dstr
//
// Exit status: 0 when the replay reproduces the recording (or the two
// transcripts agree), 1 on divergence, 2 on usage or I/O errors.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro/dsq"
)

func main() {
	var (
		diff  = flag.Bool("diff", false, "compare two transcripts instead of replaying one")
		quiet = flag.Bool("quiet", false, "suppress per-tuple replay output")
	)
	flag.Parse()

	if *diff {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: dsud-replay -diff a.dstr b.dstr")
			os.Exit(2)
		}
		os.Exit(runDiff(flag.Arg(0), flag.Arg(1)))
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: dsud-replay [-quiet] transcript.dstr | dsud-replay -diff a.dstr b.dstr")
		os.Exit(2)
	}
	os.Exit(runReplay(flag.Arg(0), *quiet))
}

func runReplay(path string, quiet bool) int {
	tr, err := dsq.ReadTranscript(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dsud-replay: %v\n", err)
		return 2
	}
	h := &tr.Header
	fmt.Printf("replaying %s: query %016x algo=%s q=%v sites=%d messages=%d (skipped %d unknown frames)\n",
		path, h.QueryID, dsq.Algorithm(h.Algorithm), h.Threshold, h.Sites, len(tr.Messages), tr.Skipped)

	var onResult func(dsq.Result)
	if !quiet {
		onResult = func(r dsq.Result) {
			fmt.Printf("skyline #%d %s  P=%.4f  (site %d)\n", r.Index, r.Tuple.Point, r.GlobalProb, r.Site)
		}
	}
	res, err := dsq.Replay(context.Background(), tr, onResult)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dsud-replay: %v\n", err)
		return 2
	}
	rep := res.Report
	bw := rep.Bandwidth
	fmt.Printf("\n%d skyline tuple(s), %d iterations, %d broadcasts\n", len(rep.Skyline), rep.Iterations, rep.Broadcasts)
	fmt.Printf("bandwidth: %d tuples (%d up, %d down), %d messages, %d wire bytes\n",
		bw.Tuples(), bw.TuplesUp, bw.TuplesDown, bw.Messages, bw.Bytes)
	if !res.Ok() {
		fmt.Fprintf(os.Stderr, "\nreplay DIVERGED from the recording in %d way(s):\n", len(res.Mismatches))
		for _, m := range res.Mismatches {
			fmt.Fprintf(os.Stderr, "  %s\n", m)
		}
		return 1
	}
	fmt.Println("replay reproduced the recording exactly")
	return 0
}

func runDiff(pathA, pathB string) int {
	a, err := dsq.ReadTranscript(pathA)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dsud-replay: %v\n", err)
		return 2
	}
	b, err := dsq.ReadTranscript(pathB)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dsud-replay: %v\n", err)
		return 2
	}
	d, err := dsq.CompareTranscripts(a, b)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dsud-replay: %v\n", err)
		return 2
	}
	fmt.Printf("diff %s (%d msgs) vs %s (%d msgs):\n", pathA, len(a.Messages), pathB, len(b.Messages))
	if _, err := d.WriteTo(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "dsud-replay: %v\n", err)
		return 2
	}
	if !d.Equal {
		return 1
	}
	return 0
}
