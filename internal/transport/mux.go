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
	"repro/internal/msg"
)

// ByteReporter is the optional Client extension for transports that can
// attribute wire bytes to individual requests. The framed protocol
// knows each request's and response's exact frame size, so overlapping
// queries sharing one connection get exact per-query byte accounting.
// RetryClient forwards the interface from the connection it wraps.
type ByteReporter interface {
	Client
	// CallBytes is Call, additionally returning the wire bytes this
	// request consumed (request frame + response frame). Zero when the
	// call failed.
	CallBytes(ctx context.Context, req *msg.Request) (*msg.Response, int64, error)
}

// CallBytes invokes cl preferring per-request byte attribution; clients
// without it report zero bytes (an in-process client puts none on a wire).
func CallBytes(cl Client, ctx context.Context, req *msg.Request) (*msg.Response, int64, error) {
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
// through ByteReporter instead, and charged by whoever makes the call).
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

// MuxClient is the TCP client: many concurrent calls pipeline over one
// connection as ID-tagged frames, the caller's goroutine writes each
// request, a demux goroutine delivers each response (they may arrive out
// of order) to the Reply channel its Send named, and cancelling one call
// abandons only that call's slot — the connection stays usable.
// MuxClient is safe for concurrent use.
type MuxClient struct {
	conn net.Conn

	// wmu serialises frame writes and guards the two buffers they reuse:
	// the encoded message and the frame around it.
	wmu  sync.Mutex
	pbuf []byte
	wbuf []byte

	nextID atomic.Uint64

	mu      sync.Mutex
	pending map[uint64]muxCall
	broken  error // terminal connection error; nil while healthy
	closed  bool
}

// muxCall is one request in flight: where its Reply goes, and what it
// has cost so far.
type muxCall struct {
	slot  int
	done  chan<- Reply
	bytes int64       // request frame wire size
	stop  func() bool // unhooks the watch on the call's context
}

// NewMuxClient speaks the framed protocol over an already-handshaken
// connection. Most callers want DialAuto; this exists for tests and
// custom dialers.
func NewMuxClient(conn net.Conn) *MuxClient {
	c := &MuxClient{conn: conn, pending: make(map[uint64]muxCall)}
	go c.readLoop()
	return c
}

// readLoop is the demux goroutine: it decodes response frames and
// delivers each to its call's Reply channel. Any read error is terminal —
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
		if fr.Type != codec.FrameResponse {
			continue // unknown frame types are ignorable padding
		}
		call, ok := c.take(fr.ID)
		if !ok {
			continue // abandoned: its Reply has gone out already
		}
		resp := new(msg.Response)
		if err := DecodeResponse(fr.Payload, resp); err != nil {
			call.reply(nil, 0, err)
			continue
		}
		call.reply(resp, call.bytes+int64(n), nil)
	}
}

// reply delivers the call's one Reply. Whoever took the call out of the
// pending table sends it, so there is never a second.
func (call muxCall) reply(resp *msg.Response, n int64, err error) {
	call.stop()
	call.done <- Reply{Slot: call.slot, Resp: resp, Bytes: n, Err: err}
}

// take removes call id from the pending table, reporting whether it was
// still there.
func (c *MuxClient) take(id uint64) (muxCall, bool) {
	c.mu.Lock()
	call, ok := c.pending[id]
	delete(c.pending, id)
	c.mu.Unlock()
	return call, ok
}

// fail marks the connection dead and errors out every in-flight call.
func (c *MuxClient) fail(err error) {
	c.mu.Lock()
	if c.broken == nil {
		c.broken = err
	}
	pend := c.pending
	c.pending = make(map[uint64]muxCall)
	c.mu.Unlock()
	c.conn.Close()
	for _, call := range pend {
		call.reply(nil, 0, err)
	}
}

// abandon ends call id with its context's error once that context is
// done, and tells the server the request was abandoned so it can stop
// working on it. The cancel frame is best-effort: a response already in
// flight just gets dropped by the demux, and a write error means the
// connection is dying anyway.
func (c *MuxClient) abandon(id uint64, err error) {
	call, ok := c.take(id)
	if !ok {
		return
	}
	call.reply(nil, 0, err)
	frame := codec.AppendFrame(nil, codec.FrameCancel, id, nil)
	c.wmu.Lock()
	c.conn.Write(frame)
	c.wmu.Unlock()
}

// Call implements Client.
func (c *MuxClient) Call(ctx context.Context, req *msg.Request) (*msg.Response, error) {
	resp, _, err := c.CallBytes(ctx, req)
	return resp, err
}

// CallBytes implements ByteReporter: one pipelined request/response,
// with the pair's exact framed wire size. Cancellation abandons the
// slot (and notifies the server) without touching the connection.
func (c *MuxClient) CallBytes(ctx context.Context, req *msg.Request) (*msg.Response, int64, error) {
	done := make(chan Reply, 1)
	c.Send(ctx, req, 0, done)
	r := <-done
	return r.Resp, r.Bytes, r.Err
}

// Send implements Sender: the request frame is written on the caller's
// goroutine, and the read loop delivers the Reply — or, if ctx ends
// first, a watch on ctx abandons the call and delivers ctx's error.
func (c *MuxClient) Send(ctx context.Context, req *msg.Request, slot int, done chan<- Reply) {
	if err := ctx.Err(); err != nil {
		done <- Reply{Slot: slot, Err: err}
		return
	}
	id := c.nextID.Add(1)
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.pbuf = AppendRequest(c.pbuf[:0], req)
	c.wbuf = codec.AppendFrame(c.wbuf[:0], codec.FrameRequest, id, c.pbuf)
	c.mu.Lock()
	err := c.broken
	if c.closed {
		err = ErrClosed
	}
	if err == nil {
		// Registered under mu, so the watch finds the call in the table
		// even if ctx is done already.
		stop := context.AfterFunc(ctx, func() { c.abandon(id, ctx.Err()) })
		c.pending[id] = muxCall{slot: slot, done: done, bytes: int64(len(c.wbuf)), stop: stop}
	}
	c.mu.Unlock()
	if err != nil {
		done <- Reply{Slot: slot, Err: err}
		return
	}
	if _, err := c.conn.Write(c.wbuf); err != nil {
		if call, ok := c.take(id); ok {
			call.reply(nil, 0, fmt.Errorf("transport: send: %w", err))
		}
		// A failed write may have put part of a frame on the wire; the
		// connection is unusable for everyone.
		c.fail(fmt.Errorf("%w: send: %v", errMuxBroken, err))
	}
}

// muxWriter serialises the response frames of one server connection,
// reusing the message and frame buffers across writes.
type muxWriter struct {
	mu   sync.Mutex
	w    io.Writer
	tap  FrameTap // observes response frames; may be nil
	pbuf []byte
	buf  []byte
}

// writeResponse encodes a handler's outcome and writes its frame. A write
// error is dropped: the connection is dying and its read loop will notice.
func (mw *muxWriter) writeResponse(id uint64, resp *msg.Response, herr error) {
	mw.mu.Lock()
	mw.pbuf = AppendResponse(mw.pbuf[:0], resp, herr)
	mw.buf = codec.AppendFrame(mw.buf[:0], codec.FrameResponse, id, mw.pbuf)
	mw.w.Write(mw.buf)
	if mw.tap != nil {
		mw.tap(TapOutbound, codec.FrameResponse, len(mw.buf))
	}
	mw.mu.Unlock()
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
		// mw serialises the workers' response writes.
		mw = &muxWriter{w: w, tap: tap}

		// imu guards the in-flight table consulted by FrameCancel.
		imu      sync.Mutex
		inflight = make(map[uint64]context.CancelFunc)

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
			imu.Unlock()
			continue
		case codec.FrameRequest:
		default:
			continue // unknown frame types are ignorable padding
		}
		var req msg.Request
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
		go func(id uint64, req msg.Request, ctx context.Context, cancel context.CancelFunc) {
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
