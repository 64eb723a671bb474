package transport

import (
	"context"
	cryptorand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/msg"
	"repro/internal/obs"
)

// DialFunc opens a fresh connection to a site.
type DialFunc func() (Client, error)

// Retry wraps a redialing, retrying client around dial. Each call is
// stamped with a fresh sequence number; when a call fails for a reason
// other than cancellation, the connection is discarded, a new one is
// dialled, and the *same* request (same sequence number) is re-sent, up
// to attempts tries. Combined with the sites' sequence-number dedup this
// yields exactly-once request execution across connection failures — the
// property the non-idempotent Next request needs.
//
// The returned client keeps fault-tolerance accounting (see
// RetryClient.Stats) so chaos tests and operators can observe how hard
// the retry machinery is working, not just whether the answer survived.
func Retry(dial DialFunc, attempts int) *RetryClient {
	if attempts < 1 {
		attempts = 1
	}
	return &RetryClient{dial: dial, attempts: attempts, client: newClientID()}
}

// newClientID draws a random nonzero identifier so independent
// coordinators never share a sequence space at the sites.
func newClientID() uint64 {
	var buf [8]byte
	for {
		if _, err := cryptorand.Read(buf[:]); err != nil {
			// crypto/rand failing is effectively fatal elsewhere too;
			// fall back to a fixed id rather than panicking.
			return 1
		}
		if id := binary.LittleEndian.Uint64(buf[:]); id != 0 {
			return id
		}
	}
}

// RetrySnapshot is a point-in-time copy of a RetryClient's fault-
// tolerance accounting, in the style of Meter.Snapshot.
type RetrySnapshot struct {
	// Calls counts Call invocations.
	Calls int64
	// Retries counts re-sends after a failed attempt (a call that
	// succeeds first time contributes zero).
	Retries int64
	// Redials counts connections dialled beyond each call's first need —
	// i.e. dials caused by a discarded connection.
	Redials int64
	// DialErrors counts dial attempts that themselves failed.
	DialErrors int64
	// Failures counts calls that exhausted every attempt.
	Failures int64
}

// Sub returns the delta s − earlier, for measuring a phase.
func (s RetrySnapshot) Sub(earlier RetrySnapshot) RetrySnapshot {
	return RetrySnapshot{
		Calls:      s.Calls - earlier.Calls,
		Retries:    s.Retries - earlier.Retries,
		Redials:    s.Redials - earlier.Redials,
		DialErrors: s.DialErrors - earlier.DialErrors,
		Failures:   s.Failures - earlier.Failures,
	}
}

// RetryClient is the concrete retrying client returned by Retry. It
// implements Client.
type RetryClient struct {
	mu       sync.Mutex
	dial     DialFunc
	attempts int
	cur      Client
	client   uint64
	seq      uint64
	closed   bool
	dialed   bool // true once the current call chain has dialled at least once

	calls      atomic.Int64
	retries    atomic.Int64
	redials    atomic.Int64
	dialErrors atomic.Int64
	failures   atomic.Int64

	// registry mirrors (nil when unobserved); kept alongside the atomics
	// so Stats works without a registry and the registry sees live totals.
	ctrRetries    *obs.Counter
	ctrRedials    *obs.Counter
	ctrDialErrors *obs.Counter
	ctrFailures   *obs.Counter
}

// Stats returns the current fault-tolerance counters. Safe to call
// concurrently with Call.
func (c *RetryClient) Stats() RetrySnapshot {
	return RetrySnapshot{
		Calls:      c.calls.Load(),
		Retries:    c.retries.Load(),
		Redials:    c.redials.Load(),
		DialErrors: c.dialErrors.Load(),
		Failures:   c.failures.Load(),
	}
}

// Observe mirrors the retry counters into reg under the site label, so a
// scrape shows how unreliable each link is. Call once, before traffic.
// Nil-safe.
func (c *RetryClient) Observe(reg *obs.Registry, site string) *RetryClient {
	if reg == nil {
		return c
	}
	reg.Describe(
		"dsud_retry_retries_total", "Request re-sends after a failed attempt, by site.",
		"dsud_retry_redials_total", "Connections redialled after a discard, by site.",
		"dsud_retry_dial_errors_total", "Dial attempts that failed, by site.",
		"dsud_retry_failures_total", "Calls that exhausted every attempt, by site.",
	)
	c.ctrRetries = reg.Counter("dsud_retry_retries_total", "site", site)
	c.ctrRedials = reg.Counter("dsud_retry_redials_total", "site", site)
	c.ctrDialErrors = reg.Counter("dsud_retry_dial_errors_total", "site", site)
	c.ctrFailures = reg.Counter("dsud_retry_failures_total", "site", site)
	return c
}

func (c *RetryClient) Call(ctx context.Context, req *msg.Request) (*msg.Response, error) {
	resp, _, err := c.CallBytes(ctx, req)
	return resp, err
}

// CallBytes is Call with per-request byte attribution forwarded from
// the underlying transport (ByteReporter). The mutex covers only
// sequence stamping and connection acquisition — never the network
// round trip — so many calls proceed concurrently over one shared mux
// connection. When that connection dies, every in-flight call fails at
// once; each then redials through current(), which dials once and hands
// the fresh connection to all of them. Sequence-number dedup at the
// sites keeps the re-sent requests exactly-once.
func (c *RetryClient) CallBytes(ctx context.Context, req *msg.Request) (*msg.Response, int64, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, 0, ErrClosed
	}
	c.seq++
	stamped := *req
	stamped.Seq = c.seq
	stamped.Client = c.client
	c.mu.Unlock()
	c.calls.Add(1)

	var lastErr error
	for attempt := 0; attempt < c.attempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
		if attempt > 0 {
			c.retries.Add(1)
			c.ctrRetries.Inc()
		}
		cl, err := c.current()
		if err != nil {
			if errors.Is(err, ErrClosed) {
				return nil, 0, ErrClosed // the RetryClient itself was closed
			}
			lastErr = err
			continue
		}
		resp, n, err := CallBytes(cl, ctx, &stamped)
		if err == nil {
			return resp, n, nil
		}
		lastErr = err
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return nil, 0, err
		}
		// The connection state is unknown; discard it and redial. With a
		// shared mux connection several calls race here — discard is
		// idempotent by pointer identity, so the loser just retries on
		// the winner's fresh connection.
		c.discard(cl)
	}
	c.failures.Add(1)
	c.ctrFailures.Inc()
	return nil, 0, fmt.Errorf("transport: %d attempt(s) failed: %w", c.attempts, lastErr)
}

// current returns the live connection, dialling one if needed. Dials
// are serialised under the mutex so concurrent callers share a single
// connection instead of racing to create their own.
func (c *RetryClient) current() (Client, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrClosed
	}
	if c.cur != nil {
		return c.cur, nil
	}
	if c.dialed {
		// Not the first dial this client's lifetime: the previous
		// connection was discarded, so this is a redial.
		c.redials.Add(1)
		c.ctrRedials.Inc()
	}
	cl, err := c.dial()
	c.dialed = true
	if err != nil {
		c.dialErrors.Add(1)
		c.ctrDialErrors.Inc()
		return nil, err
	}
	c.cur = cl
	return cl, nil
}

// discard retires a failed connection. Pointer identity guards against
// a stale caller discarding a successor connection it never used.
func (c *RetryClient) discard(cl Client) {
	c.mu.Lock()
	if c.cur == cl {
		c.cur = nil
	}
	c.mu.Unlock()
	cl.Close()
}

func (c *RetryClient) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	if c.cur != nil {
		err := c.cur.Close()
		c.cur = nil
		return err
	}
	return nil
}
