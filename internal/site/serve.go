package site

import (
	"context"
	"log/slog"
	"time"

	"repro/internal/msg"
	"repro/internal/obs"
)

// serve wraps dispatch with the engine's per-request observability:
// metrics (when instrumented), the reply's ServiceNS (when the request is
// Timed) and structured logging (when a logger is set). With all three
// off it is a tail call into dispatch and reads no clock. Called with e.mu
// held, so ServiceNS is the handling time alone, not the wait for the
// lock.
func (e *Engine) serve(req *msg.Request) (*msg.Response, error) {
	k := int(req.Kind)
	instrumented := e.obsOn && k >= 1 && k <= msg.MaxKind
	if !instrumented && !req.Timed && e.logger == nil {
		return e.dispatch(req)
	}
	start := time.Now()
	resp, err := e.dispatch(req)
	dur := time.Since(start)
	if instrumented {
		e.obsLat[k].Observe(dur.Seconds())
		e.obsReqs[k].Inc()
	}
	if req.Timed && resp != nil {
		// Zero means "not timed" on the wire, so a reply that took less
		// than the clock's resolution still reports a nanosecond.
		resp.ServiceNS = max(int64(dur), 1)
	}
	if e.logger != nil {
		e.logRequest(req, err, dur)
	}
	return resp, err
}

// SetLogger attaches a structured logger to the engine. Every request is
// logged at Debug; requests slower than slow (when positive) are
// promoted to Warn — the site half of the slow-query log. Records carry
// query_id, the request's session rendered as the coordinator renders
// its query ID, so coordinator and site logs join on it. A nil logger
// (the default) costs one nil test per request.
func (e *Engine) SetLogger(l *slog.Logger, slow time.Duration) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.logger = l
	e.slowReq = slow
}

// logRequest emits one request record. Called with e.mu held.
func (e *Engine) logRequest(req *msg.Request, err error, dur time.Duration) {
	switch {
	case err != nil:
		e.logger.Error("request failed",
			"kind", req.Kind.String(), "query_id", obs.QueryID(req.Session),
			"dur", dur, "err", err)
	case e.slowReq > 0 && dur >= e.slowReq:
		e.logger.Warn("slow request",
			"kind", req.Kind.String(), "query_id", obs.QueryID(req.Session),
			"dur", dur, "threshold", e.slowReq)
	default:
		// Guard with Enabled so the common Info-level configuration pays
		// no argument boxing on the hot path.
		if e.logger.Enabled(context.Background(), slog.LevelDebug) {
			e.logger.Debug("request",
				"kind", req.Kind.String(), "query_id", obs.QueryID(req.Session),
				"dur", dur)
		}
	}
}
