package core

// Offline transcript replay: re-run a recorded query through the real
// round engine against stub sites that answer verbatim from the
// recording — no sockets, no site state. The engine is deterministic
// given identical per-site response sequences (the queue is built in
// site-index order and feedback selection is pure), so a healthy build
// reproduces the exact skyline, delivery ordinals, per-site tallies and
// (tuple-count-based) delivery-curve AUC the transcript pinned; any
// disagreement is a behavioural regression, localized further by
// transcript.Compare.

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/codec"
	"repro/internal/msg"
	"repro/internal/obs/transcript"
	"repro/internal/transport"
)

// ReplayResult is one offline replay's outcome: the replayed report and
// every disagreement with the recording.
type ReplayResult struct {
	Report *Report
	// Mismatches lists each divergence from the recorded summary and
	// every violated delivery invariant; empty means the replay
	// reproduced the recording byte-for-byte (on the deterministic
	// dimensions — wall-clock ones are excluded by design).
	Mismatches []string
	// Delivered is the replayed delivery order (ordinal, tuple, prob).
	Delivered []Result
}

// Ok reports whether the replay reproduced the recording.
func (r *ReplayResult) Ok() bool { return len(r.Mismatches) == 0 }

// replayClient answers one site's RPCs verbatim from its recorded
// exchange list, in order. Any skew between what the engine asks and
// what the recording holds — the kind, an evaluate's feedback tuple or
// its refill bit — fails loudly with the ordinal where they diverged,
// even when a sibling's failure has already cancelled the fan-out, so the
// first diverging site of a fan-out is the one the replay names. It
// implements ByteReporter so the recorded wire bytes flow through the
// per-query meter exactly as they did live.
type replayClient struct {
	site int
	mu   sync.Mutex
	exs  []transcript.Exchange
	next int
}

func (c *replayClient) Call(ctx context.Context, req *msg.Request) (*msg.Response, error) {
	resp, _, err := c.CallBytes(ctx, req)
	return resp, err
}

func (c *replayClient) CallBytes(ctx context.Context, req *msg.Request) (*msg.Response, int64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.next >= len(c.exs) {
		return nil, 0, fmt.Errorf("core: replay site %d: transcript exhausted at ordinal %d (engine sent extra %v)",
			c.site, c.next, req.Kind)
	}
	ex := c.exs[c.next]
	if int64(req.Kind) != ex.Kind {
		refill := ""
		if req.Refill {
			refill = " with a refill"
		}
		return nil, 0, fmt.Errorf("core: replay site %d ordinal %d: engine sent %v%s, recording holds %v",
			c.site, c.next, req.Kind, refill, msg.Kind(ex.Kind))
	}
	if req.Kind == msg.KindEvaluate {
		var rec msg.Request
		if err := transport.DecodeRequest(ex.Request.Payload, &rec); err != nil {
			return nil, 0, fmt.Errorf("core: replay site %d ordinal %d: recorded request: %w", c.site, c.next, err)
		}
		if rec.Feed.Tuple.ID != req.Feed.Tuple.ID {
			return nil, 0, fmt.Errorf("core: replay site %d ordinal %d: engine broadcast tuple %d, recording holds %d",
				c.site, c.next, req.Feed.Tuple.ID, rec.Feed.Tuple.ID)
		}
		if rec.Refill != req.Refill {
			return nil, 0, fmt.Errorf("core: replay site %d ordinal %d: engine sent refill=%v, recording holds refill=%v",
				c.site, c.next, req.Refill, rec.Refill)
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	resp := new(msg.Response)
	if err := transport.DecodeResponse(ex.Response.Payload, resp); err != nil {
		return nil, 0, fmt.Errorf("core: replay site %d ordinal %d: recorded response: %w", c.site, c.next, err)
	}
	c.next++
	return resp, ex.Response.WireBytes, nil
}

func (c *replayClient) Close() error { return nil }

// remaining reports how many recorded exchanges the engine never asked
// for (EndQuery teardown rides the recorded tail too, so a clean replay
// consumes everything).
func (c *replayClient) remaining() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.exs) - c.next
}

// replayOptions reconstructs the query options a transcript header
// describes.
func replayOptions(t *transcript.Transcript) Options {
	h := &t.Header
	opts := Options{
		Threshold:          h.Threshold,
		Algorithm:          Algorithm(h.Algorithm),
		Policy:             FeedbackPolicy(h.Policy),
		TopK:               int(h.TopK),
		MaxResults:         int(h.MaxResults),
		DisableExpunge:     h.Flags&codec.TranscriptFlagDisableExpunge != 0,
		DisableSitePruning: h.Flags&codec.TranscriptFlagDisableSitePruning != 0,
	}
	for _, d := range h.Dims {
		opts.Dims = append(opts.Dims, int(d))
	}
	return opts
}

// Replay re-runs the recorded query offline and checks the outcome
// against the transcript's pinned summary plus the delivery invariants
// (strictly monotone 1-based ordinals, every delivered probability at
// or above the threshold). onResult, when non-nil, streams the replayed
// deliveries as they happen.
func Replay(ctx context.Context, t *transcript.Transcript, onResult func(Result)) (*ReplayResult, error) {
	exs, err := t.BySite()
	if err != nil {
		return nil, err
	}
	if int(t.Header.Sites) != len(exs) {
		return nil, fmt.Errorf("core: transcript header says %d sites, messages span %d", t.Header.Sites, len(exs))
	}
	clients := make([]transport.Client, len(exs))
	stubs := make([]*replayClient, len(exs))
	for i := range exs {
		stubs[i] = &replayClient{site: i, exs: exs[i]}
		clients[i] = stubs[i]
	}
	cluster, err := NewClusterFromClients(clients, int(t.Header.Dimensionality))
	if err != nil {
		return nil, err
	}

	res := &ReplayResult{}
	mismatch := func(format string, args ...any) {
		res.Mismatches = append(res.Mismatches, fmt.Sprintf(format, args...))
	}
	opts := replayOptions(t)
	opts.OnResult = func(r Result) {
		if r.Index != len(res.Delivered)+1 {
			mismatch("delivery ordinal %d arrived after %d deliveries (must be strictly monotone, 1-based)",
				r.Index, len(res.Delivered))
		}
		if r.GlobalProb < opts.Threshold {
			mismatch("delivered tuple %d with probability %v below threshold %v", r.Tuple.ID, r.GlobalProb, opts.Threshold)
		}
		res.Delivered = append(res.Delivered, r)
		if onResult != nil {
			onResult(r)
		}
	}

	rep, err := cluster.Query(ctx, opts)
	if err != nil {
		return nil, fmt.Errorf("core: replay: %w", err)
	}
	res.Report = rep
	for i, stub := range stubs {
		if n := stub.remaining(); n > 0 {
			mismatch("site %d: engine left %d recorded exchanges unconsumed", i, n)
		}
	}
	if t.Summary != nil {
		compareReplay(res, t, rep, mismatch)
	}
	return res, nil
}

// compareReplay checks the replayed report against the recorded summary
// on every deterministic dimension.
func compareReplay(res *ReplayResult, t *transcript.Transcript, rep *Report, mismatch func(string, ...any)) {
	sum := t.Summary
	if int64(len(rep.Skyline)) != sum.Results {
		mismatch("skyline size: replayed %d, recorded %d", len(rep.Skyline), sum.Results)
	}
	n := len(rep.Skyline)
	if len(sum.SkylineIDs) < n {
		n = len(sum.SkylineIDs)
	}
	for i := 0; i < n; i++ {
		m := rep.Skyline[i]
		if uint64(m.Tuple.ID) != sum.SkylineIDs[i] || m.Prob != sum.SkylineProbs[i] {
			mismatch("skyline[%d]: replayed tuple %d (P=%v), recorded tuple %d (P=%v)",
				i, m.Tuple.ID, m.Prob, sum.SkylineIDs[i], sum.SkylineProbs[i])
		}
	}
	for _, c := range []struct {
		name          string
		got, recorded int64
	}{
		{"iterations", int64(rep.Iterations), sum.Iterations},
		{"broadcasts", int64(rep.Broadcasts), sum.Broadcasts},
		{"expunged", int64(rep.Expunged), sum.Expunged},
		{"refills", int64(rep.Refills), sum.Refills},
		{"pruned-local", int64(rep.PrunedLocal), sum.PrunedLocal},
		{"tuples-up", rep.Bandwidth.TuplesUp, sum.TuplesUp},
		{"tuples-down", rep.Bandwidth.TuplesDown, sum.TuplesDown},
		{"messages", rep.Bandwidth.Messages, sum.Messages},
	} {
		if c.got != c.recorded {
			mismatch("%s: replayed %d, recorded %d", c.name, c.got, c.recorded)
		}
	}
	// Byte totals reproduce only when the live transport attributed
	// bytes per request (TCP); in-process recordings carry none — skip
	// the check there.
	var recordedWire int64
	for _, m := range t.Messages {
		recordedWire += m.WireBytes
	}
	if recordedWire > 0 && rep.Bandwidth.Bytes != sum.Bytes {
		mismatch("wire bytes: replayed %d, recorded %d", rep.Bandwidth.Bytes, sum.Bytes)
	}
	if rep.Curve != nil && rep.Curve.AUCBandwidth != sum.AUCBandwidth {
		mismatch("bandwidth AUC: replayed %v, recorded %v", rep.Curve.AUCBandwidth, sum.AUCBandwidth)
	}
	if len(rep.PerSite) != len(sum.PerSiteShipped) {
		mismatch("per-site tallies: replayed %d sites, recorded %d", len(rep.PerSite), len(sum.PerSiteShipped))
		return
	}
	for i, tally := range rep.PerSite {
		if tally.Shipped != sum.PerSiteShipped[i] || tally.Pruned != sum.PerSitePruned[i] {
			mismatch("site %d tallies: replayed shipped=%d pruned=%d, recorded shipped=%d pruned=%d",
				i, tally.Shipped, tally.Pruned, sum.PerSiteShipped[i], sum.PerSitePruned[i])
		}
	}
}
