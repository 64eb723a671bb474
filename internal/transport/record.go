package transport

import (
	"context"

	"repro/internal/codec"
)

// FrameTap observes raw frames crossing a server's mux loops:
// inbound frames as the read loop decodes them, outbound response
// frames as they are written. wireBytes is the framed size including
// the length prefix. Taps run on the connection's read loop and worker
// goroutines, so they must be safe for concurrent use and cheap —
// counter bumps, not payload inspection (payload capture happens at the
// Call layer via Recorded).
type FrameTap func(dir uint8, t codec.FrameType, wireBytes int)

// Frame tap directions.
const (
	// TapInbound is a frame read off the connection.
	TapInbound = 0
	// TapOutbound is a frame written to the connection.
	TapOutbound = 1
)

// CallTap observes completed RPCs on a recorded client. RecordCall runs
// on the query's broadcast goroutines, after the inner call returns and
// its meters have accounted it, so implementations must be safe for
// concurrent use and should stay cheap. wireBytes is the framed wire
// cost the inner transport attributed to the call (0 on transports that
// meter at the socket instead).
type CallTap interface {
	RecordCall(site int, req *Request, resp *Response, wireBytes int64)
}

// Recorded wraps a Client so every successful call is offered to tap,
// stamped with the given site index. It rides the same wrapper chain as
// Metered/Instrumented: the wrapper forwards ByteReporter so stacked
// meters keep exact per-request bytes. Queries that are not being
// recorded never stack this wrapper, so the unsampled path pays nothing.
func Recorded(c Client, site int, tap CallTap) Client {
	return &recordedClient{inner: c, site: site, tap: tap}
}

type recordedClient struct {
	inner Client
	site  int
	tap   CallTap
}

func (c *recordedClient) Call(ctx context.Context, req *Request) (*Response, error) {
	resp, _, err := c.CallBytes(ctx, req)
	return resp, err
}

func (c *recordedClient) CallBytes(ctx context.Context, req *Request) (*Response, int64, error) {
	resp, n, err := callBytes(c.inner, ctx, req)
	if err == nil {
		c.tap.RecordCall(c.site, req, resp, n)
	}
	return resp, n, err
}

func (c *recordedClient) Close() error { return c.inner.Close() }
