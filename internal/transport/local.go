package transport

import (
	"context"
	"sync"

	"repro/internal/msg"
)

// Local returns an in-process Client that dispatches directly to h. Calls
// are serialised per client (unlike the TCP transport, which pipelines
// them) and honour context cancellation. It is a Sender whose Send runs
// the handler on the caller's goroutine.
func Local(h Handler) Client {
	return &localClient{handler: h}
}

type localClient struct {
	mu      sync.Mutex
	handler Handler
	closed  bool
}

func (c *localClient) Call(ctx context.Context, req *msg.Request) (*msg.Response, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrClosed
	}
	return c.handler.Handle(ctx, req)
}

// Send implements Sender: the call runs to its end before Send returns.
func (c *localClient) Send(ctx context.Context, req *msg.Request, slot int, done chan<- Reply) {
	resp, err := c.Call(ctx, req)
	done <- Reply{Slot: slot, Resp: resp, Err: err}
}

func (c *localClient) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	return nil
}
