package transport

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/codec"
)

// ByteReporter is the optional Client extension for transports that can
// attribute wire bytes to individual requests. The framed protocol
// knows each request's and response's exact frame size, so overlapping
// queries sharing one connection get exact per-query byte accounting.
// Wrappers (Metered, Instrumented, Retry) forward the interface when
// their inner client provides it.
type ByteReporter interface {
	Client
	// CallBytes is Call, additionally returning the wire bytes this
	// request consumed (request frame + response frame). Zero when the
	// call failed.
	CallBytes(ctx context.Context, req *Request) (*Response, int64, error)
}

// callBytes invokes cl preferring per-request byte attribution; clients
// without it report zero bytes (their bytes are socket-counted instead).
func callBytes(cl Client, ctx context.Context, req *Request) (*Response, int64, error) {
	if br, ok := cl.(ByteReporter); ok {
		return br.CallBytes(ctx, req)
	}
	resp, err := cl.Call(ctx, req)
	return resp, 0, err
}

// muxHandshakeTimeout bounds the hello round trip at dial time, so a
// peer that accepts the connection and then says nothing cannot hang
// the dial.
const muxHandshakeTimeout = 5 * time.Second

// errMuxBroken wraps the terminal error of a mux connection when it is
// surfaced to calls that were in flight as it died.
var errMuxBroken = errors.New("transport: mux connection broken")

// ErrWireVersion reports a peer that did not echo this build's hello: it
// speaks another wire generation (or is not a site daemon at all).
var ErrWireVersion = errors.New("transport: peer does not speak this wire version")

// DialAuto connects to a site: it sends the hello and returns a
// pipelining MuxClient once the server echoes it. A peer that answers
// anything else is an ErrWireVersion. meter may be nil; when set it
// observes the handshake bytes (call bytes are attributed per request
// through ByteReporter instead, so they are charged by the Metered
// wrapper, not here).
func DialAuto(addr string, meter *Meter) (Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	hello := codec.MuxHandshake()
	conn.SetDeadline(time.Now().Add(muxHandshakeTimeout))
	var ack [5]byte
	if _, err = conn.Write(hello[:]); err == nil {
		_, err = io.ReadFull(conn, ack[:])
	}
	if err == nil && ack != hello {
		err = fmt.Errorf("sent hello %x, peer answered %x", hello, ack)
	}
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("transport: dial %s: %w: %v", addr, ErrWireVersion, err)
	}
	conn.SetDeadline(time.Time{})
	if meter != nil {
		meter.AddBytes(int64(len(hello) + len(ack)))
	}
	return NewMuxClient(conn), nil
}

// MuxClient is the TCP client: many concurrent Calls pipeline over one
// connection as ID-tagged frames, a demux goroutine routes responses
// (which may arrive out of order) back to their callers, and cancelling
// one call abandons only that call's slot — the connection stays
// usable. MuxClient is safe for concurrent use.
type MuxClient struct {
	conn net.Conn

	// wmu serialises frame writes and guards the two buffers they reuse:
	// the encoded message and the frame around it.
	wmu  sync.Mutex
	pbuf []byte
	wbuf []byte

	nextID atomic.Uint64

	mu      sync.Mutex
	pending map[uint64]chan muxResult
	subs    map[uint64]*muxSub // live telemetry subscriptions by ID
	broken  error              // terminal connection error; nil while healthy
	closed  bool
}

// muxSub is one live telemetry subscription. Its decode state (the
// reused snapshot that doubles as the delta base) is only touched from
// the demux goroutine, so it needs no lock of its own.
type muxSub struct {
	fn     func(*codec.Telemetry)
	t      codec.Telemetry
	primed bool // t holds a decoded snapshot usable as a delta base
}

// deliver decodes one pushed frame and hands it to the callback. A frame
// that fails to decode (corrupt, or a delta whose base we lost) drops
// the prime: the stream re-synchronises on the publisher's next full
// re-anchor instead of erroring the whole connection.
func (sub *muxSub) deliver(payload []byte) {
	var prev *codec.Telemetry
	if sub.primed {
		prev = &sub.t
	}
	if err := codec.DecodeTelemetry(payload, &sub.t, prev); err != nil {
		sub.primed = false
		return
	}
	sub.primed = true
	sub.fn(&sub.t)
}

type muxResult struct {
	resp  *Response
	err   error
	bytes int64 // response frame wire size
}

// NewMuxClient speaks the framed protocol over an already-handshaken
// connection. Most callers want DialAuto; this exists for tests and
// custom dialers.
func NewMuxClient(conn net.Conn) *MuxClient {
	c := &MuxClient{conn: conn, pending: make(map[uint64]chan muxResult)}
	go c.readLoop()
	return c
}

// readLoop is the demux goroutine: it decodes response frames and
// delivers each to its caller's channel. Any read error is terminal —
// every in-flight call fails with it, and subsequent calls are refused
// until the owner (usually a Retry client) discards and redials. A
// response whose frame is intact but whose payload does not decode fails
// only the call it answers.
func (c *MuxClient) readLoop() {
	frames := codec.NewFrameReader(c.conn)
	for {
		fr, n, err := frames.ReadFrame()
		if err != nil {
			c.fail(fmt.Errorf("%w: %v", errMuxBroken, err))
			return
		}
		if fr.Type == codec.FrameTelemetry {
			c.mu.Lock()
			sub := c.subs[fr.ID]
			c.mu.Unlock()
			if sub != nil {
				sub.deliver(fr.Payload)
			}
			continue
		}
		if fr.Type != codec.FrameResponse {
			continue // unknown frame types are ignorable padding
		}
		res := muxResult{resp: new(Response), bytes: int64(n)}
		res.err = DecodeResponse(fr.Payload, res.resp)
		c.mu.Lock()
		ch := c.pending[fr.ID]
		delete(c.pending, fr.ID)
		c.mu.Unlock()
		if ch != nil {
			ch <- res // buffered; a cancelled caller simply never reads it
		}
	}
}

// fail marks the connection dead and errors out every in-flight call.
func (c *MuxClient) fail(err error) {
	c.mu.Lock()
	if c.broken == nil {
		c.broken = err
	}
	pend := c.pending
	c.pending = make(map[uint64]chan muxResult)
	c.subs = nil // subscriptions die with the connection; resubscribe after redial
	c.mu.Unlock()
	c.conn.Close()
	for _, ch := range pend {
		ch <- muxResult{err: err}
	}
}

// forget abandons one request slot (cancellation).
func (c *MuxClient) forget(id uint64) {
	c.mu.Lock()
	delete(c.pending, id)
	c.mu.Unlock()
}

// sendCancel tells the server the request was abandoned so it can stop
// working on it. Best-effort and asynchronous: a response already in
// flight just gets dropped by the demux, and a write error means the
// connection is dying anyway.
func (c *MuxClient) sendCancel(id uint64) {
	frame := codec.AppendFrame(nil, codec.FrameCancel, id, nil)
	c.wmu.Lock()
	c.conn.Write(frame)
	c.wmu.Unlock()
}

// SubscribeTelemetry implements TelemetrySubscriber: it asks the server
// to push one telemetry snapshot per interval (0 selects the server
// default) and invokes fn from the demux goroutine for each one. The
// snapshot passed to fn is reused between pushes — copy what you keep.
// A server that predates telemetry silently ignores the subscription
// (the subscriber just never sees a push), and the subscription dies
// with the connection. cancel is idempotent and best-effort, like
// request cancellation.
func (c *MuxClient) SubscribeTelemetry(interval time.Duration, fn func(*codec.Telemetry)) (func(), error) {
	id := c.nextID.Add(1)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	if c.broken != nil {
		err := c.broken
		c.mu.Unlock()
		return nil, err
	}
	if c.subs == nil {
		c.subs = make(map[uint64]*muxSub)
	}
	c.subs[id] = &muxSub{fn: fn}
	c.mu.Unlock()

	frame := codec.AppendFrame(nil, codec.FrameSubscribe, id,
		codec.AppendSubscribe(nil, int64(interval)))
	c.wmu.Lock()
	_, err := c.conn.Write(frame)
	c.wmu.Unlock()
	if err != nil {
		c.mu.Lock()
		delete(c.subs, id)
		c.mu.Unlock()
		c.fail(fmt.Errorf("%w: subscribe: %v", errMuxBroken, err))
		return nil, fmt.Errorf("transport: subscribe: %w", err)
	}
	return func() {
		c.mu.Lock()
		_, live := c.subs[id]
		delete(c.subs, id)
		c.mu.Unlock()
		if live {
			c.sendCancel(id)
		}
	}, nil
}

// Call implements Client.
func (c *MuxClient) Call(ctx context.Context, req *Request) (*Response, error) {
	resp, _, err := c.CallBytes(ctx, req)
	return resp, err
}

// CallBytes implements ByteReporter: one pipelined request/response,
// with the pair's exact framed wire size. Cancellation abandons the
// slot (and notifies the server) without touching the connection.
func (c *MuxClient) CallBytes(ctx context.Context, req *Request) (*Response, int64, error) {
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	id := c.nextID.Add(1)
	ch := make(chan muxResult, 1)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, 0, ErrClosed
	}
	if c.broken != nil {
		err := c.broken
		c.mu.Unlock()
		return nil, 0, err
	}
	c.pending[id] = ch
	c.mu.Unlock()

	c.wmu.Lock()
	c.pbuf = AppendRequest(c.pbuf[:0], req)
	c.wbuf = codec.AppendFrame(c.wbuf[:0], codec.FrameRequest, id, c.pbuf)
	reqBytes := int64(len(c.wbuf))
	_, err := c.conn.Write(c.wbuf)
	c.wmu.Unlock()
	if err != nil {
		c.forget(id)
		// A failed write may have put part of a frame on the wire; the
		// connection is unusable for everyone.
		c.fail(fmt.Errorf("%w: send: %v", errMuxBroken, err))
		return nil, 0, fmt.Errorf("transport: send: %w", err)
	}

	select {
	case res := <-ch:
		if res.err != nil {
			return nil, 0, res.err
		}
		return res.resp, reqBytes + res.bytes, nil
	case <-ctx.Done():
		c.forget(id)
		go c.sendCancel(id)
		return nil, 0, ctx.Err()
	}
}

// serveMux serves one connection: after echoing the hello it reads
// frames, dispatches each request to a worker goroutine (bounded by the
// worker limit — past it the server stops reading, so backpressure is
// ordinary TCP flow control), and serialises response frames back over
// the shared connection in completion order. A FrameCancel cancels the
// matching in-flight handler's context and leaves the connection alone.
// A request frame whose payload does not decode is answered with an
// error response for its id; every frame is self-contained, so the
// requests pipelined around it are unaffected.
func (s *Server) serveMux(r io.Reader, w io.Writer) {
	var hello [5]byte
	if _, err := io.ReadFull(r, hello[:]); err != nil || hello != codec.MuxHandshake() {
		return // another wire generation, or not a coordinator: refuse by closing
	}
	s.mu.Lock()
	limit := s.workerLimit
	tap := s.frameTap
	s.mu.Unlock()
	if limit < 1 {
		limit = DefaultWorkerLimit
	}
	if _, err := w.Write(hello[:]); err != nil {
		return
	}
	s.muxConns.Add(1)
	defer s.muxConns.Add(-1)

	var (
		// mw serialises frame writes, shared with this connection's
		// telemetry publishers.
		mw = &muxWriter{w: w, tap: tap}

		// imu guards the in-flight table consulted by FrameCancel and the
		// telemetry-subscription table it also serves.
		imu      sync.Mutex
		inflight = make(map[uint64]context.CancelFunc)
		subs     = make(map[uint64]context.CancelFunc)

		wg  sync.WaitGroup
		sem = make(chan struct{}, limit)
	)
	frames := codec.NewFrameReader(r)
	connCtx, connCancel := context.WithCancel(context.Background())
	defer connCancel()
	// Drain contract (see Shutdown): when the read loop exits, requests
	// already dispatched still finish handling and answering before the
	// connection closes.
	defer wg.Wait()
	// Telemetry publishers, unlike request handlers, run until told to
	// stop — so they get their own cancel+wait pair, run (LIFO) before
	// the handler drain above: cancel the streams, wait them out, then
	// let in-flight requests finish answering.
	pubCtx, pubCancel := context.WithCancel(connCtx)
	var pubWG sync.WaitGroup
	defer pubWG.Wait()
	defer pubCancel()

	for {
		fr, n, err := frames.ReadFrame()
		if err != nil {
			return // EOF, broken peer, corruption, or a drain deadline
		}
		if tap != nil {
			tap(TapInbound, fr.Type, n)
		}
		switch fr.Type {
		case codec.FrameCancel:
			imu.Lock()
			if cancel := inflight[fr.ID]; cancel != nil {
				cancel()
			}
			if cancel := subs[fr.ID]; cancel != nil {
				cancel()
				delete(subs, fr.ID)
			}
			imu.Unlock()
			continue
		case codec.FrameSubscribe:
			interval, derr := codec.DecodeSubscribe(fr.Payload)
			if derr != nil {
				continue // malformed body: drop, like an unknown frame
			}
			s.mu.Lock()
			src := s.telemetrySource
			s.mu.Unlock()
			if src == nil {
				continue // telemetry not wired: subscriber sees no pushes
			}
			subCtx, subCancel := context.WithCancel(pubCtx)
			imu.Lock()
			if old := subs[fr.ID]; old != nil {
				old() // duplicate ID: the newer subscription wins
			}
			subs[fr.ID] = subCancel
			imu.Unlock()
			pubWG.Add(1)
			go func(id uint64, interval time.Duration) {
				defer pubWG.Done()
				s.runTelemetryPublisher(subCtx, mw, id, interval, src)
			}(fr.ID, time.Duration(interval))
			continue
		case codec.FrameRequest:
		default:
			continue // unknown frame types are ignorable padding
		}
		var req Request
		if err := DecodeRequest(fr.Payload, &req); err != nil {
			mw.writeResponse(fr.ID, nil, err)
			continue
		}
		// A full pool parks this read loop on sem; the queued gauge is
		// what makes that saturation visible to /statusz before clients
		// feel it as TCP backpressure.
		s.queuedReqs.Add(1)
		sem <- struct{}{}
		s.queuedReqs.Add(-1)
		s.busyWorkers.Add(1)
		reqCtx, cancel := context.WithCancel(connCtx)
		imu.Lock()
		inflight[fr.ID] = cancel
		imu.Unlock()
		wg.Add(1)
		go func(id uint64, req Request, ctx context.Context, cancel context.CancelFunc) {
			defer wg.Done()
			defer func() { <-sem; s.busyWorkers.Add(-1) }()
			defer func() {
				imu.Lock()
				delete(inflight, id)
				imu.Unlock()
				cancel()
			}()
			resp, err := s.handler.Handle(ctx, &req)
			if ctx.Err() != nil {
				return // cancelled: the client has already abandoned the slot
			}
			mw.writeResponse(id, resp, err)
		}(fr.ID, req, reqCtx, cancel)
		if s.draining.Load() {
			return // stop reading; the deferred wg.Wait answers in-flight work
		}
	}
}

// Close releases the connection; in-flight calls fail.
func (c *MuxClient) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	err := c.conn.Close()
	c.fail(ErrClosed)
	if errors.Is(err, net.ErrClosed) {
		return nil // readLoop got there first; not the caller's problem
	}
	return err
}
