package transport

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Server exposes a Handler on a TCP listener, one goroutine per accepted
// connection. After the handshake a connection carries frames: requests
// are dispatched to a bounded pool of worker goroutines and responses
// return as they complete, possibly out of order (see serveMux).
type Server struct {
	handler Handler
	meter   *Meter

	mu          sync.Mutex
	listener    net.Listener
	conns       map[net.Conn]struct{}
	wg          sync.WaitGroup
	closed      bool
	workerLimit int
	// draining makes per-connection loops exit after the in-flight
	// request (if any) completes, instead of waiting for the next one —
	// the graceful half of Shutdown.
	draining atomic.Bool

	// Saturation telemetry across every connection: how many worker
	// goroutines are inside the handler right now, and how many read
	// loops are parked waiting for a worker slot (the moment queued goes
	// nonzero, TCP backpressure has reached that connection's client).
	muxConns    atomic.Int64
	busyWorkers atomic.Int64
	queuedReqs  atomic.Int64

	// Telemetry push plane (see telemetry.go): the snapshot source the
	// publishers read (mu-guarded) and their aggregate counters.
	telemetrySource   TelemetrySource
	telemetrySubs     atomic.Int64
	telemetryPushes   atomic.Uint64
	telemetryLastPush atomic.Int64

	// frameTap, when set, observes every frame the mux loops read or
	// write (see FrameTap). mu-guarded; loaded once per connection.
	frameTap FrameTap
}

// WorkerStats is a point-in-time view of the server's worker-pool
// saturation, aggregated across connections. Busy at Limit×Conns with
// Queued > 0 is the backpressure regime: the server has stopped reading
// some connections and clients are throttled by TCP flow control.
type WorkerStats struct {
	// Conns is the number of live connections.
	Conns int `json:"conns"`
	// Busy is how many requests are inside handlers right now; Limit is
	// the per-connection worker cap they are admitted under.
	Busy  int `json:"busy"`
	Limit int `json:"limit"`
	// Queued is how many connections' read loops are blocked waiting for
	// a free worker slot.
	Queued int `json:"queued"`
}

// WorkerStats reports current worker-pool saturation. Cheap enough
// for status handlers; safe for concurrent use.
func (s *Server) WorkerStats() WorkerStats {
	s.mu.Lock()
	limit := s.workerLimit
	s.mu.Unlock()
	if limit < 1 {
		limit = DefaultWorkerLimit
	}
	return WorkerStats{
		Conns:  int(s.muxConns.Load()),
		Busy:   int(s.busyWorkers.Load()),
		Limit:  limit,
		Queued: int(s.queuedReqs.Load()),
	}
}

// DefaultWorkerLimit bounds concurrent request handlers per
// connection when SetWorkerLimit was not called. One coordinator
// multiplexes all of its concurrent queries over a single connection,
// so the limit is per-peer fairness and memory protection, not a
// per-query cap.
const DefaultWorkerLimit = 32

// SetWorkerLimit bounds how many requests one connection may have in
// flight in handlers simultaneously (n < 1 restores the default).
// Beyond the limit the server stops reading the connection, so TCP
// backpressure reaches the client. Call before Serve.
func (s *Server) SetWorkerLimit(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.workerLimit = n
}

// SetFrameTap installs (or, with nil, removes) a tap observing every
// frame the server's mux loops read or write — the wire-level counter
// feed for per-direction frame metrics. Call before Serve; connections
// accepted earlier keep the tap they started with.
func (s *Server) SetFrameTap(tap FrameTap) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.frameTap = tap
}

// NewServer returns a server for h. meter may be nil; when set, wire bytes
// are recorded on it.
func NewServer(h Handler, meter *Meter) *Server {
	return &Server{handler: h, meter: meter, conns: make(map[net.Conn]struct{})}
}

// Serve accepts connections on lis until Close (or a fatal accept error).
// It blocks; run it in a goroutine.
func (s *Server) Serve(lis net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		lis.Close()
		return ErrClosed
	}
	s.listener = lis
	s.mu.Unlock()

	for {
		conn, err := lis.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return fmt.Errorf("transport: accept: %w", err)
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()

	var reader io.Reader = conn
	var writer io.Writer = conn
	if s.meter != nil {
		reader = &countingReader{r: conn, meter: s.meter}
		writer = &countingWriter{w: conn, meter: s.meter}
	}
	s.serveMux(bufio.NewReader(reader), writer)
}

// Shutdown stops the server gracefully: the listener closes (no new
// connections), every idle connection is woken and closed, connections
// with a request in flight finish handling and answering it, and
// Shutdown blocks until all per-connection goroutines have exited or ctx
// expires — in which case the stragglers are closed hard, exactly as
// Close would. Requests that were only partially received when the
// drain began are dropped unanswered ("stop accepting requests").
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.draining.Store(true)
	lis := s.listener
	// Wake connections blocked reading a frame for a request that will
	// never be served: an immediate read deadline errors the pending read
	// while leaving in-flight handlers free to write their response.
	for conn := range s.conns {
		conn.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()

	var err error
	if lis != nil {
		err = lis.Close()
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return err
	case <-ctx.Done():
		// Give up on the drain: hard-close the stragglers' connections
		// and return without waiting — a handler stuck in user code can
		// never be forced out, and its goroutine will exit on its own
		// when the handler returns and the response write fails.
		s.mu.Lock()
		for conn := range s.conns {
			conn.Close()
		}
		s.mu.Unlock()
		if err == nil {
			err = ctx.Err()
		}
		return err
	}
}

// Close stops accepting, closes live connections, and waits for the
// per-connection goroutines to drain.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	lis := s.listener
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	var err error
	if lis != nil {
		err = lis.Close()
	}
	s.wg.Wait()
	return err
}

type countingReader struct {
	r     io.Reader
	meter *Meter
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.meter.AddBytes(int64(n))
	return n, err
}

type countingWriter struct {
	w     io.Writer
	meter *Meter
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.meter.AddBytes(int64(n))
	return n, err
}
