package site

import (
	"context"
	"log/slog"
	"time"

	"repro/internal/codec"
	"repro/internal/obs"
	"repro/internal/transport"
)

// Site-side distributed tracing. When a request arrives with a sampled
// trace context the engine opens a root span around the whole dispatch,
// the handlers hang child spans off it for their own phases (PR-tree
// threshold search, Observation-2 pruning, replica maintenance, response
// encoding), and the completed spans — each carrying its slice of the
// bandwidth ledger — ride back to the coordinator on Response.TraceBlob.
//
// The collector lives in Engine.cur, which is safe because Handle holds
// e.mu for the full dispatch; the unsampled path never touches it. Span
// helpers are value types, so an untraced request costs one nil test per
// would-be span and zero allocations.

// reqTrace collects the spans of one in-flight sampled request.
type reqTrace struct {
	rootID uint64
	spans  []obs.SpanRecord
}

// siteSpan is one in-flight site-side span. The zero value is inert.
type siteSpan struct {
	e      *Engine
	parent uint64
	name   string
	t0     int64
}

// startSpan opens a child span under the current request's root span.
// Inert (and allocation-free) when the request is untraced.
func (e *Engine) startSpan(name string) siteSpan {
	if e.cur == nil {
		return siteSpan{}
	}
	return siteSpan{e: e, parent: e.cur.rootID, name: name, t0: time.Now().UnixNano()}
}

// end closes the span, crediting tuples/bytes to its bandwidth ledger.
// For pure-compute spans the ledger counts tuples affected (e.g. pruned)
// rather than shipped.
func (s siteSpan) end(tuples, bytes int64) {
	if s.e == nil || s.e.cur == nil {
		return
	}
	tr := s.e.cur
	tr.spans = append(tr.spans, obs.SpanRecord{
		ID:     obs.NewSpanID(),
		Parent: s.parent,
		Name:   s.name,
		Site:   s.e.id,
		Start:  s.t0,
		End:    time.Now().UnixNano(),
		Tuples: tuples,
		Bytes:  bytes,
	})
}

// serve wraps dispatch with the engine's per-request observability:
// metrics (when instrumented), spans (when the request is sampled) and
// structured logging (when a logger is set). With all three off it is a
// tail call into dispatch — the PR-1 hot path, unchanged. Called with
// e.mu held.
func (e *Engine) serve(req *transport.Request) (*transport.Response, error) {
	k := int(req.Kind)
	instrumented := e.obsOn && k >= 1 && k <= transport.MaxKind
	traced := req.Trace.Traced()
	if !instrumented && !traced && e.logger == nil {
		return e.dispatch(req)
	}
	if traced {
		e.cur = &reqTrace{rootID: obs.NewSpanID()}
	}
	start := time.Now()
	resp, err := e.dispatch(req)
	dur := time.Since(start)
	if instrumented {
		e.obsLat[k].Observe(dur.Seconds())
		e.obsReqs[k].Inc()
	}
	if traced {
		e.finishReqTrace(req, resp, start, dur)
		e.cur = nil
	}
	if e.logger != nil {
		e.logRequest(req, err, dur)
	}
	return resp, err
}

// finishReqTrace closes the request's root span, stamps the response
// ledger on it, measures the response encoding as its own span, and
// attaches the encoded batch to the response.
func (e *Engine) finishReqTrace(req *transport.Request, resp *transport.Response, start time.Time, dur time.Duration) {
	if resp == nil {
		return
	}
	tr := e.cur
	tuples, bytes := respLedger(req, resp, e.index.Dims())
	spans := append(tr.spans, obs.SpanRecord{
		ID:     tr.rootID,
		Parent: req.Trace.Parent,
		Name:   "site-handle/" + req.Kind.String(),
		Site:   e.id,
		Start:  start.UnixNano(),
		End:    start.Add(dur).UnixNano(),
		Tuples: tuples,
		Bytes:  bytes,
	})
	batch := &obs.SpanBatch{Ctx: req.Trace, SiteID: e.id, Spans: spans}
	// Encode once to measure the response-encoding cost, then re-encode
	// with that cost visible as its own span. Batches are a handful of
	// records, so the double encode is noise next to one RPC.
	t0 := time.Now()
	probe := codec.AppendSpanBatch(nil, batch)
	encEnd := time.Now()
	batch.Spans = append(spans, obs.SpanRecord{
		ID:     obs.NewSpanID(),
		Parent: tr.rootID,
		Name:   "encode-response",
		Site:   e.id,
		Start:  t0.UnixNano(),
		End:    encEnd.UnixNano(),
		Bytes:  int64(len(probe)),
	})
	batch.SiteClock = time.Now().UnixNano()
	resp.TraceBlob = codec.AppendSpanBatch(probe[:0], batch)
}

// respLedger attributes one response's bandwidth to the request's root
// span, mirroring transport.Meter.Account's tuple rules; bytes are the
// binary-encoded size of those tuples (codec.TupleWireSize), since the
// site cannot observe the framed wire itself.
func respLedger(req *transport.Request, resp *transport.Response, dims int) (tuples, bytes int64) {
	size := codec.TupleWireSize(dims)
	switch req.Kind {
	case transport.KindInit, transport.KindNext:
		if !resp.Exhausted {
			return 1, size
		}
	case transport.KindEvaluate:
		n := int64(max(1, len(req.Tuples))) // a maintenance batch: one per candidate
		return n, n * size
	case transport.KindInsert:
		return 1, size
	case transport.KindDelete:
		n := 1 + int64(len(resp.Tuples)) // the notice, then the candidates it answers
		return n, n * size
	case transport.KindShipAll, transport.KindCandidates:
		n := int64(len(resp.Tuples))
		return n, n * size
	case transport.KindReplicate:
		n := int64(len(req.Tuples))
		return n, n * size
	}
	return 0, 0
}

// SetLogger attaches a structured logger to the engine. Every request is
// logged at Debug; requests slower than slow (when positive) are
// promoted to Warn — the site half of the slow-query log. Records carry
// query_id when the request bears a trace context, so coordinator and
// site logs join on it. A nil logger (the default) costs one nil test
// per request.
func (e *Engine) SetLogger(l *slog.Logger, slow time.Duration) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.logger = l
	e.slowReq = slow
}

// logRequest emits one request record. Called with e.mu held.
func (e *Engine) logRequest(req *transport.Request, err error, dur time.Duration) {
	switch {
	case err != nil:
		e.logger.Error("request failed",
			"kind", req.Kind.String(), "session", req.Session,
			"query_id", obs.QueryID(req.Trace.TraceID),
			"dur", dur, "err", err)
	case e.slowReq > 0 && dur >= e.slowReq:
		e.logger.Warn("slow request",
			"kind", req.Kind.String(), "session", req.Session,
			"query_id", obs.QueryID(req.Trace.TraceID),
			"dur", dur, "threshold", e.slowReq)
	default:
		// Guard with Enabled so the common Info-level configuration pays
		// no argument boxing on the hot path.
		if e.logger.Enabled(context.Background(), slog.LevelDebug) {
			e.logger.Debug("request",
				"kind", req.Kind.String(), "session", req.Session,
				"query_id", obs.QueryID(req.Trace.TraceID),
				"dur", dur)
		}
	}
}
