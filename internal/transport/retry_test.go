package transport

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/msg"
)

// lossyClient executes the call against the handler but "loses" the
// response for scripted attempts, simulating a connection that dies after
// the site processed the request — the nasty case for non-idempotent
// operations.
type lossyClient struct {
	h         Handler
	mu        *sync.Mutex
	callCount *int
	loseEvery int
	dead      bool
}

var errLinkDown = errors.New("simulated link failure")

func (c *lossyClient) Call(ctx context.Context, req *msg.Request) (*msg.Response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dead {
		return nil, errLinkDown
	}
	*c.callCount++
	resp, err := c.h.Handle(ctx, req)
	if c.loseEvery > 0 && *c.callCount%c.loseEvery == 0 {
		c.dead = true // this "connection" is gone; response lost in flight
		return nil, errLinkDown
	}
	return resp, err
}

func (c *lossyClient) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.dead = true
	return nil
}

// seqCounter is a handler that increments on every *executed* request and
// implements the sites' dedup contract for sequenced requests.
type seqCounter struct {
	executed int
	lastSeq  uint64
	lastResp *msg.Response
}

func (h *seqCounter) Handle(_ context.Context, req *msg.Request) (*msg.Response, error) {
	if req.Seq != 0 && req.Seq == h.lastSeq {
		return h.lastResp, nil
	}
	h.executed++
	resp := &msg.Response{Pruned: h.executed}
	if req.Seq != 0 {
		h.lastSeq, h.lastResp = req.Seq, resp
	}
	return resp, nil
}

func TestRetryRedialsAndDedups(t *testing.T) {
	h := &seqCounter{}
	var mu sync.Mutex
	calls := 0
	dial := func() (Client, error) {
		return &lossyClient{h: h, mu: &mu, callCount: &calls, loseEvery: 3}, nil
	}
	c := Retry(dial, 5)
	defer c.Close()

	const n = 20
	for i := 1; i <= n; i++ {
		resp, err := c.Call(context.Background(), &msg.Request{Kind: msg.KindNext})
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		// Exactly-once: despite every third transport call losing its
		// response, the handler must have executed each request once.
		if resp.Pruned != i {
			t.Fatalf("call %d executed %d times total (dedup broken)", i, resp.Pruned)
		}
	}
	if h.executed != n {
		t.Fatalf("handler executed %d requests, want %d", h.executed, n)
	}
}

func TestRetryExhaustsAttempts(t *testing.T) {
	dial := func() (Client, error) { return nil, errLinkDown }
	c := Retry(dial, 3)
	defer c.Close()
	_, err := c.Call(context.Background(), &msg.Request{Kind: msg.KindNext})
	if err == nil || !errors.Is(err, errLinkDown) {
		t.Fatalf("err = %v, want wrapped link failure", err)
	}
}

func TestRetryRespectsCancellation(t *testing.T) {
	h := &seqCounter{}
	var mu sync.Mutex
	calls := 0
	dial := func() (Client, error) {
		return &lossyClient{h: h, mu: &mu, callCount: &calls, loseEvery: 1}, nil
	}
	c := Retry(dial, 1000)
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.Call(ctx, &msg.Request{Kind: msg.KindNext})
	if err == nil {
		t.Fatal("forever-failing transport must eventually error")
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("cancellation not honoured")
	}
}

func TestRetryCloseIsTerminal(t *testing.T) {
	h := &seqCounter{}
	var mu sync.Mutex
	calls := 0
	dial := func() (Client, error) {
		return &lossyClient{h: h, mu: &mu, callCount: &calls}, nil
	}
	c := Retry(dial, 2)
	if _, err := c.Call(context.Background(), &msg.Request{Kind: msg.KindNext}); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Call(context.Background(), &msg.Request{Kind: msg.KindNext}); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

func TestRetryMinimumAttempts(t *testing.T) {
	h := &seqCounter{}
	var mu sync.Mutex
	calls := 0
	dial := func() (Client, error) {
		return &lossyClient{h: h, mu: &mu, callCount: &calls}, nil
	}
	c := Retry(dial, 0) // clamps to 1
	defer c.Close()
	if _, err := c.Call(context.Background(), &msg.Request{Kind: msg.KindNext}); err != nil {
		t.Fatal(err)
	}
}
