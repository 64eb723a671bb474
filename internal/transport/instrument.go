package transport

import (
	"context"
	"time"

	"repro/internal/obs"
)

// Instrumented wraps a Client so every call is measured against reg: a
// per-kind latency histogram (dsud_rpc_duration_seconds) and a per-kind,
// per-outcome counter (dsud_rpc_requests_total). site labels the peer.
// The per-kind instruments are resolved once at construction, so the hot
// path is two atomic updates and one time.Since — no map lookups, no
// allocation. A nil registry returns c unchanged (zero cost).
func Instrumented(c Client, reg *obs.Registry, site string) Client {
	if reg == nil {
		return c
	}
	reg.Describe(
		"dsud_rpc_requests_total", "Protocol requests by site, kind and outcome.",
		"dsud_rpc_duration_seconds", "Round-trip latency of protocol requests by site and kind.",
	)
	ic := &instrumentedClient{inner: c}
	for k := 1; k <= MaxKind; k++ {
		kind := Kind(k).String()
		ic.latency[k] = reg.Histogram("dsud_rpc_duration_seconds", nil, "site", site, "kind", kind)
		ic.ok[k] = reg.Counter("dsud_rpc_requests_total", "site", site, "kind", kind, "outcome", "ok")
		ic.err[k] = reg.Counter("dsud_rpc_requests_total", "site", site, "kind", kind, "outcome", "error")
	}
	return ic
}

type instrumentedClient struct {
	inner   Client
	latency [MaxKind + 1]*obs.Histogram
	ok      [MaxKind + 1]*obs.Counter
	err     [MaxKind + 1]*obs.Counter
}

func (c *instrumentedClient) Call(ctx context.Context, req *Request) (*Response, error) {
	resp, _, err := c.CallBytes(ctx, req)
	return resp, err
}

// CallBytes forwards per-request byte attribution (ByteReporter) so
// instrumentation composes transparently with the TCP transport.
func (c *instrumentedClient) CallBytes(ctx context.Context, req *Request) (*Response, int64, error) {
	k := int(req.Kind)
	if k < 1 || k > MaxKind {
		return callBytes(c.inner, ctx, req) // unknown kind: pass through unmeasured
	}
	start := time.Now()
	resp, n, err := callBytes(c.inner, ctx, req)
	c.latency[k].Observe(time.Since(start).Seconds())
	if err != nil {
		c.err[k].Inc()
	} else {
		c.ok[k].Inc()
	}
	return resp, n, err
}

func (c *instrumentedClient) Close() error { return c.inner.Close() }

// Unwrap exposes the inner client so optional interfaces (telemetry
// subscription) are discoverable through the wrapper.
func (c *instrumentedClient) Unwrap() Client { return c.inner }

// ExposeMeter registers the meter's counters with reg under the paper's
// bandwidth vocabulary. Values are read live at scrape time, so one
// registration covers the meter's whole lifetime (including Reset).
// Nil-safe in both arguments.
func ExposeMeter(reg *obs.Registry, m *Meter) {
	if reg == nil || m == nil {
		return
	}
	reg.Describe(
		"dsud_transport_tuples_up_total", "Tuples shipped from sites to the coordinator (the paper's up-bandwidth).",
		"dsud_transport_tuples_down_total", "Tuples shipped from the coordinator to sites (feedback broadcasts, updates).",
		"dsud_transport_messages_total", "Protocol round trips.",
		"dsud_transport_bytes_total", "Wire bytes where the transport can observe them (TCP only).",
	)
	reg.CounterFunc("dsud_transport_tuples_up_total", func() float64 { return float64(m.Snapshot().TuplesUp) })
	reg.CounterFunc("dsud_transport_tuples_down_total", func() float64 { return float64(m.Snapshot().TuplesDown) })
	reg.CounterFunc("dsud_transport_messages_total", func() float64 { return float64(m.Snapshot().Messages) })
	reg.CounterFunc("dsud_transport_bytes_total", func() float64 { return float64(m.Snapshot().Bytes) })
}
