package transcript

import (
	"fmt"
	"io"

	"repro/internal/codec"
	"repro/internal/msg"
	"repro/internal/transport"
)

// DiffResult is what Compare found between two transcripts of the same
// logical query. Only per-site structure is compared: the global
// interleaving of messages across sites is goroutine-schedule noise and
// would make identical builds look different.
type DiffResult struct {
	// Equal is true when no differences were found.
	Equal bool
	// Lines are the human-readable differences, most structural first.
	Lines []string
	// DivergedSite/DivergedRound localize the first feedback
	// divergence: the round is the index into that site's evaluate
	// sequence (−1 when the feedback schedules agree). This is the
	// regression-hunting handle: the first round where the two builds'
	// coordinators chose different feedback.
	DivergedSite  int
	DivergedRound int
}

func (d *DiffResult) addf(format string, args ...any) {
	d.Equal = false
	d.Lines = append(d.Lines, fmt.Sprintf(format, args...))
}

// WriteTo renders the result for the CLI.
func (d *DiffResult) WriteTo(w io.Writer) (int64, error) {
	var n int64
	if d.Equal {
		m, err := fmt.Fprintln(w, "transcripts agree")
		return int64(m), err
	}
	for _, l := range d.Lines {
		m, err := fmt.Fprintln(w, l)
		n += int64(m)
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// phaseAgg aggregates one phase's wire presence in a transcript.
type phaseAgg struct {
	messages int64
	bytes    int64
}

func phaseAggregates(t *Transcript) map[uint8]phaseAgg {
	out := make(map[uint8]phaseAgg)
	for _, m := range t.Messages {
		a := out[m.Phase]
		a.messages++
		a.bytes += m.WireBytes
		out[m.Phase] = a
	}
	return out
}

// feedbackSeq extracts one site's feedback schedule: the tuple IDs of
// its Evaluate requests in ordinal order.
func feedbackSeq(exs []Exchange) ([]uint64, error) {
	var out []uint64
	for _, ex := range exs {
		if msg.Kind(ex.Kind) != msg.KindEvaluate {
			continue
		}
		var req msg.Request
		if err := transport.DecodeRequest(ex.Request.Payload, &req); err != nil {
			return nil, fmt.Errorf("transcript: request payload: %w", err)
		}
		out = append(out, uint64(req.Feed.Tuple.ID))
	}
	return out, nil
}

// Compare diffs two transcripts: header parameters, per-site message
// counts, per-phase message/byte aggregates, per-site request-kind
// sequences, the feedback schedules (localizing the first divergent
// round), and the recorded outcomes.
func Compare(a, b *Transcript) (*DiffResult, error) {
	d := &DiffResult{Equal: true, DivergedSite: -1, DivergedRound: -1}

	ha, hb := &a.Header, &b.Header
	if ha.Algorithm != hb.Algorithm {
		d.addf("header: algorithm %s vs %s", AlgorithmName(ha.Algorithm), AlgorithmName(hb.Algorithm))
	}
	if ha.Threshold != hb.Threshold {
		d.addf("header: threshold %v vs %v", ha.Threshold, hb.Threshold)
	}
	if ha.Sites != hb.Sites {
		d.addf("header: %d vs %d sites", ha.Sites, hb.Sites)
	}
	if fmt.Sprint(ha.Dims) != fmt.Sprint(hb.Dims) {
		d.addf("header: dims %v vs %v", ha.Dims, hb.Dims)
	}

	pa, pb := phaseAggregates(a), phaseAggregates(b)
	for _, ph := range []uint8{PhaseToServer, PhaseFeedbackSelect, PhaseServerDelivery, PhaseLocalPruning, PhaseControl} {
		aa, bb := pa[ph], pb[ph]
		if aa.messages != bb.messages {
			d.addf("phase %s: %d vs %d messages", PhaseName(ph), aa.messages, bb.messages)
		}
		if aa.bytes != bb.bytes {
			d.addf("phase %s: %d vs %d wire bytes", PhaseName(ph), aa.bytes, bb.bytes)
		}
	}

	sa, err := a.BySite()
	if err != nil {
		return nil, err
	}
	sb, err := b.BySite()
	if err != nil {
		return nil, err
	}
	sites := len(sa)
	if len(sb) > sites {
		sites = len(sb)
	}
	for site := 0; site < sites; site++ {
		var ea, eb []Exchange
		if site < len(sa) {
			ea = sa[site]
		}
		if site < len(sb) {
			eb = sb[site]
		}
		if len(ea) != len(eb) {
			d.addf("site %d: %d vs %d exchanges", site, len(ea), len(eb))
		}
		n := len(ea)
		if len(eb) < n {
			n = len(eb)
		}
		for i := 0; i < n; i++ {
			if ea[i].Kind != eb[i].Kind {
				d.addf("site %d ordinal %d: request kind %v vs %v", site, i,
					msg.Kind(ea[i].Kind), msg.Kind(eb[i].Kind))
				break // later kinds are downstream of the first skew
			}
		}

		fa, err := feedbackSeq(ea)
		if err != nil {
			return nil, err
		}
		fb, err := feedbackSeq(eb)
		if err != nil {
			return nil, err
		}
		fn := len(fa)
		if len(fb) < fn {
			fn = len(fb)
		}
		for i := 0; i < fn; i++ {
			if fa[i] != fb[i] {
				if d.DivergedRound == -1 || i < d.DivergedRound {
					d.DivergedSite, d.DivergedRound = site, i
				}
				d.addf("site %d: feedback diverges at round %d: tuple %d vs %d", site, i, fa[i], fb[i])
				break
			}
		}
		if len(fa) != len(fb) {
			d.addf("site %d: %d vs %d feedback rounds", site, len(fa), len(fb))
		}
	}

	switch {
	case a.Summary == nil && b.Summary == nil:
	case a.Summary == nil || b.Summary == nil:
		d.addf("summary: present in one transcript only")
	default:
		ca, cb := a.Summary, b.Summary
		if fmt.Sprint(ca.SkylineIDs) != fmt.Sprint(cb.SkylineIDs) {
			d.addf("summary: skyline %v vs %v", ca.SkylineIDs, cb.SkylineIDs)
		}
		if ca.Results != cb.Results {
			d.addf("summary: %d vs %d results", ca.Results, cb.Results)
		}
		if ca.Iterations != cb.Iterations {
			d.addf("summary: %d vs %d iterations", ca.Iterations, cb.Iterations)
		}
		if ca.Bytes != cb.Bytes {
			d.addf("summary: %d vs %d wire bytes", ca.Bytes, cb.Bytes)
		}
		if ca.AUCBandwidth != cb.AUCBandwidth {
			d.addf("summary: bandwidth AUC %.6f vs %.6f", ca.AUCBandwidth, cb.AUCBandwidth)
		}
	}
	if d.DivergedRound >= 0 {
		d.addf("first divergence: site %d round %d (see above)", d.DivergedSite, d.DivergedRound)
	}
	return d, nil
}

// Message direction re-exported for callers that render transcripts.
const (
	DirRequest  = codec.TranscriptDirRequest
	DirResponse = codec.TranscriptDirResponse
)
