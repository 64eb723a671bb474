package transport

import (
	"context"
	"sync/atomic"
)

// Meter accumulates the paper's communication metrics. Bandwidth is
// measured in tuples transmitted (§3.2: synchronisation messages and
// headers are excluded); message and byte counts are kept as secondary
// diagnostics. Meter is safe for concurrent use and its zero value is
// ready.
type Meter struct {
	tuplesUp   atomic.Int64 // site → coordinator
	tuplesDown atomic.Int64 // coordinator → site
	messages   atomic.Int64
	bytes      atomic.Int64
}

// Snapshot is a point-in-time copy of a Meter.
type Snapshot struct {
	// TuplesUp counts tuples shipped from sites to the coordinator
	// (representatives, baseline partitions, promotion candidates).
	TuplesUp int64
	// TuplesDown counts tuples shipped from the coordinator to sites
	// (feedback broadcasts, update notifications).
	TuplesDown int64
	// Messages counts protocol round trips.
	Messages int64
	// Bytes counts wire bytes where the transport can observe them (TCP);
	// zero for the in-process transport.
	Bytes int64
}

// Tuples is the paper's headline bandwidth metric: total tuples
// transmitted in either direction.
func (s Snapshot) Tuples() int64 { return s.TuplesUp + s.TuplesDown }

// Sub returns the delta s − earlier, for measuring a phase.
func (s Snapshot) Sub(earlier Snapshot) Snapshot {
	return Snapshot{
		TuplesUp:   s.TuplesUp - earlier.TuplesUp,
		TuplesDown: s.TuplesDown - earlier.TuplesDown,
		Messages:   s.Messages - earlier.Messages,
		Bytes:      s.Bytes - earlier.Bytes,
	}
}

// Snapshot returns the current counter values.
func (m *Meter) Snapshot() Snapshot {
	return Snapshot{
		TuplesUp:   m.tuplesUp.Load(),
		TuplesDown: m.tuplesDown.Load(),
		Messages:   m.messages.Load(),
		Bytes:      m.bytes.Load(),
	}
}

// Reset zeroes all counters.
func (m *Meter) Reset() {
	m.tuplesUp.Store(0)
	m.tuplesDown.Store(0)
	m.messages.Store(0)
	m.bytes.Store(0)
}

// AddBytes records transport-observed wire bytes.
func (m *Meter) AddBytes(n int64) { m.bytes.Add(n) }

// Account records the tuple and message cost of one completed call. The
// rules implement the paper's accounting exactly:
//
//   - every Representative returned by Init/Next costs one up-tuple;
//   - every Evaluate request ships the feedback tuple down (one per site
//     contacted, so a broadcast to m−1 sites costs m−1), or a batch of
//     maintenance candidates, one down-tuple each;
//   - ShipAll, Candidates and Delete responses cost one up-tuple per tuple
//     they carry (the partition, the promotion candidates);
//   - Insert/Delete requests ship one tuple of update traffic down only
//     when they originate remotely (the caller decides by using a metered
//     client or not), and so does the deletion notice of Candidates;
//   - probability scalars, prune counts and sizes ride for free, like the
//     paper's headers.
func (m *Meter) Account(req *Request, resp *Response) {
	m.messages.Add(1)
	switch req.Kind {
	case KindInit, KindNext:
		if resp != nil && !resp.Exhausted {
			m.tuplesUp.Add(1)
		}
	case KindEvaluate:
		m.tuplesDown.Add(int64(max(1, len(req.Tuples))))
	case KindShipAll, KindCandidates, KindDelete:
		if resp != nil {
			m.tuplesUp.Add(int64(len(resp.Tuples)))
		}
		if req.Kind != KindShipAll {
			m.tuplesDown.Add(1)
		}
	case KindInsert:
		m.tuplesDown.Add(1)
	case KindReplicate:
		// Replica adds travel downstream as whole tuples; removals are
		// IDs and ride free like headers.
		m.tuplesDown.Add(int64(len(req.Tuples)))
	}
}

// Metered wraps a Client so every successful call is accounted against
// m. When the inner client attributes wire bytes per request
// (ByteReporter, i.e. the TCP transport), those bytes are credited
// to m as well, and the wrapper itself implements ByteReporter so
// stacked meters (cluster-wide under per-query) each see exact bytes.
func Metered(c Client, m *Meter) Client {
	return &meteredClient{inner: c, meter: m}
}

type meteredClient struct {
	inner Client
	meter *Meter
}

func (c *meteredClient) Call(ctx context.Context, req *Request) (*Response, error) {
	resp, _, err := c.CallBytes(ctx, req)
	return resp, err
}

func (c *meteredClient) CallBytes(ctx context.Context, req *Request) (*Response, int64, error) {
	resp, n, err := callBytes(c.inner, ctx, req)
	if err == nil {
		c.meter.Account(req, resp)
		if n > 0 {
			// In-process clients report zero: they put nothing on a wire.
			c.meter.AddBytes(n)
		}
	}
	return resp, n, err
}

func (c *meteredClient) Close() error { return c.inner.Close() }

// Unwrap exposes the inner client so optional interfaces (telemetry
// subscription) are discoverable through the wrapper.
func (c *meteredClient) Unwrap() Client { return c.inner }
