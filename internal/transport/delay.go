package transport

import (
	"context"
	"time"
)

// Delayed wraps a client with a fixed artificial round-trip latency per
// call — a simple network model that lets single-machine experiments
// study progressiveness in the time domain (the paper's §3.2 motivates
// progressive delivery precisely by network delay). The sleep honours
// context cancellation.
func Delayed(c Client, latency time.Duration) Client {
	if latency <= 0 {
		return c
	}
	return &delayedClient{inner: c, latency: latency}
}

type delayedClient struct {
	inner   Client
	latency time.Duration
}

func (c *delayedClient) Call(ctx context.Context, req *Request) (*Response, error) {
	resp, _, err := c.CallBytes(ctx, req)
	return resp, err
}

// CallBytes forwards per-request byte attribution (ByteReporter), so a
// latency model stacked over a mux connection keeps exact accounting.
func (c *delayedClient) CallBytes(ctx context.Context, req *Request) (*Response, int64, error) {
	timer := time.NewTimer(c.latency)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return nil, 0, ctx.Err()
	case <-timer.C:
	}
	return callBytes(c.inner, ctx, req)
}

func (c *delayedClient) Close() error { return c.inner.Close() }
