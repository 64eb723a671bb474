package transport

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/msg"
	"repro/internal/uncertain"
)

// echoHandler returns canned responses and records requests.
type echoHandler struct {
	mu   sync.Mutex
	seen []msg.Kind
	resp msg.Response
	err  error
}

func (h *echoHandler) Handle(_ context.Context, req *msg.Request) (*msg.Response, error) {
	h.mu.Lock()
	h.seen = append(h.seen, req.Kind)
	h.mu.Unlock()
	if h.err != nil {
		return nil, h.err
	}
	resp := h.resp
	return &resp, nil
}

func (h *echoHandler) kinds() []msg.Kind {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]msg.Kind(nil), h.seen...)
}

func sampleTuple(id uncertain.TupleID) uncertain.Tuple {
	return uncertain.Tuple{ID: id, Point: geom.Point{1.5, 2.5}, Prob: 0.75}
}

func TestLocalClient(t *testing.T) {
	h := &echoHandler{resp: msg.Response{Pruned: 7}}
	c := Local(h)
	resp, err := c.Call(context.Background(), &msg.Request{Kind: msg.KindStatus})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Pruned != 7 {
		t.Fatalf("Pruned = %d, want 7", resp.Pruned)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Call(context.Background(), &msg.Request{Kind: msg.KindNext}); !errors.Is(err, ErrClosed) {
		t.Fatalf("call after close = %v, want ErrClosed", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Local(h).Call(ctx, &msg.Request{Kind: msg.KindNext}); err == nil {
		t.Fatal("cancelled context must fail")
	}
}

// Maintenance batches: an Evaluate carrying candidates ships each of them
// down, and a delete that answers candidates ships each of them up.
func TestMeterAccountsMaintenanceBatches(t *testing.T) {
	var m Meter
	rep := msg.Representative{Tuple: sampleTuple(1), LocalProb: 0.5}
	m.Account(&msg.Request{Kind: msg.KindEvaluate, Tuples: []msg.Representative{rep, rep, rep}}, &msg.Response{CrossProbs: []float64{1, 1, 1}})
	m.Account(&msg.Request{Kind: msg.KindDelete, Query: msg.Query{Threshold: 0.3}}, &msg.Response{Tuples: []msg.Representative{rep, rep}})
	if s := m.Snapshot(); s.Messages != 2 || s.TuplesDown != 3+1 || s.TuplesUp != 2 {
		t.Fatalf("got %+v, want 2 messages, 4 tuples down (3 candidates, 1 notice), 2 up", s)
	}
}

func TestMeterAccounting(t *testing.T) {
	var m Meter
	rep := msg.Representative{Tuple: sampleTuple(1), LocalProb: 0.5}

	m.Account(&msg.Request{Kind: msg.KindInit}, &msg.Response{Rep: rep})
	m.Account(&msg.Request{Kind: msg.KindNext}, &msg.Response{Rep: rep})
	m.Account(&msg.Request{Kind: msg.KindNext}, &msg.Response{Exhausted: true})
	m.Account(&msg.Request{Kind: msg.KindEvaluate}, &msg.Response{CrossProb: 1})
	m.Account(&msg.Request{Kind: msg.KindShipAll}, &msg.Response{Tuples: []msg.Representative{rep, rep, rep}})
	m.Account(&msg.Request{Kind: msg.KindCandidates}, &msg.Response{Tuples: []msg.Representative{rep}})
	m.Account(&msg.Request{Kind: msg.KindInsert}, &msg.Response{})
	m.Account(&msg.Request{Kind: msg.KindDelete}, &msg.Response{})
	m.Account(&msg.Request{Kind: msg.KindStatus}, &msg.Response{Pruned: 3})

	s := m.Snapshot()
	if s.Messages != 9 {
		t.Errorf("Messages = %d, want 9", s.Messages)
	}
	// Up: init(1) + next(1) + exhausted(0) + shipall(3) + candidates(1) = 6
	if s.TuplesUp != 6 {
		t.Errorf("TuplesUp = %d, want 6", s.TuplesUp)
	}
	// Down: evaluate(1) + candidates notice(1) + insert(1) + delete(1) = 4
	if s.TuplesDown != 4 {
		t.Errorf("TuplesDown = %d, want 4", s.TuplesDown)
	}
	if s.Tuples() != 10 {
		t.Errorf("Tuples = %d, want 10", s.Tuples())
	}

	delta := m.Snapshot().Sub(s)
	if delta.Tuples() != 0 || delta.Messages != 0 {
		t.Errorf("Sub of identical snapshots = %+v, want zeroes", delta)
	}
	m.Reset()
	if got := m.Snapshot(); got.Tuples() != 0 || got.Messages != 0 || got.Bytes != 0 {
		t.Errorf("Reset left %+v", got)
	}
}

// CallBytes gives a metering caller what it charges: the response to
// Account and the wire bytes to AddBytes. An in-process client puts no
// bytes on a wire, the TCP transport reports its frames' bytes (through a
// RetryClient too), and a failed call returns no response to charge.
func TestMeteredClient(t *testing.T) {
	var m Meter
	h := &echoHandler{resp: msg.Response{Rep: msg.Representative{Tuple: sampleTuple(1)}}}
	charge := func(c Client) (int64, error) {
		req := &msg.Request{Kind: msg.KindNext}
		resp, n, err := CallBytes(c, context.Background(), req)
		if err != nil {
			if resp != nil || n != 0 {
				t.Fatalf("failed call returned response %v and %d bytes", resp, n)
			}
			return 0, err
		}
		m.Account(req, resp)
		m.AddBytes(n)
		return n, nil
	}

	local := Local(h)
	if n, err := charge(local); err != nil || n != 0 {
		t.Fatalf("in-process call: %d bytes, err %v; want 0 bytes", n, err)
	}
	if got := m.Snapshot(); got.TuplesUp != 1 || got.Messages != 1 {
		t.Fatalf("metered call not accounted: %+v", got)
	}

	addr, _ := startServer(t, h, nil)
	tcp := Retry(func() (Client, error) { return DialAuto(addr, nil) }, 2)
	defer tcp.Close()
	n, err := charge(tcp)
	if err != nil || n <= 0 {
		t.Fatalf("TCP call: %d bytes, err %v; want wire bytes", n, err)
	}
	if got := m.Snapshot(); got.TuplesUp != 2 || got.Messages != 2 || got.Bytes != n {
		t.Fatalf("after TCP call: %+v, want 2 up, 2 messages, %d bytes", got, n)
	}

	// Errors must not be accounted.
	bad := &echoHandler{err: errors.New("boom")}
	badAddr, _ := startServer(t, bad, nil)
	badTCP, err := DialAuto(badAddr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer badTCP.Close()
	before := m.Snapshot()
	for _, c := range []Client{Local(bad), badTCP} {
		if _, err := charge(c); err == nil {
			t.Fatal("handler error must propagate")
		}
	}
	if got := m.Snapshot(); got != before {
		t.Fatalf("failed calls accounted: %+v, was %+v", got, before)
	}
	if err := local.Close(); err != nil {
		t.Fatal(err)
	}
}

func startServer(t *testing.T, h Handler, meter *Meter) (addr string, srv *Server) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv = NewServer(h, meter)
	go srv.Serve(lis)
	t.Cleanup(func() { srv.Close() })
	return lis.Addr().String(), srv
}

func TestTCPRoundTrip(t *testing.T) {
	want := msg.Response{
		Rep:           msg.Representative{Tuple: sampleTuple(42), LocalProb: 0.625},
		CrossProb:     0.5,
		Pruned:        3,
		Tuples:        []msg.Representative{{Tuple: sampleTuple(7), LocalProb: 0.9}},
		SessionPruned: 11,
	}
	h := &echoHandler{resp: want}
	var meter Meter
	addr, _ := startServer(t, h, nil)
	c, err := DialAuto(addr, &meter)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	req := &msg.Request{
		Kind:  msg.KindEvaluate,
		Query: msg.Query{Threshold: 0.3, Dims: []int{0, 1}},
		Feed:  msg.Feedback{Tuple: sampleTuple(42), HomeLocalProb: 0.625},
		Tuple: sampleTuple(1),
		ID:    9,
		Point: geom.Point{3, 4},
	}
	got, err := c.Call(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rep.Tuple.ID != 42 || got.Rep.LocalProb != 0.625 || got.CrossProb != 0.5 ||
		got.Pruned != 3 || len(got.Tuples) != 1 || got.Tuples[0].Tuple.ID != 7 || got.SessionPruned != 11 {
		t.Fatalf("round trip mangled response: %+v", got)
	}
	if !got.Rep.Tuple.Point.Equal(geom.Point{1.5, 2.5}) {
		t.Fatalf("point mangled: %v", got.Rep.Tuple.Point)
	}
	if meter.Snapshot().Bytes == 0 {
		t.Error("client meter should observe wire bytes")
	}
	// Sequential calls on the same connection.
	for i := 0; i < 5; i++ {
		if _, err := c.Call(context.Background(), &msg.Request{Kind: msg.KindNext}); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if kinds := h.kinds(); len(kinds) != 6 {
		t.Fatalf("server saw %d requests, want 6", len(kinds))
	}
}

// blockingHandler parks every request until released, signalling entry.
type blockingHandler struct {
	entered chan struct{}
	release chan struct{}
}

func (h *blockingHandler) Handle(_ context.Context, _ *msg.Request) (*msg.Response, error) {
	h.entered <- struct{}{}
	<-h.release
	return &msg.Response{Pruned: 99}, nil
}

// Shutdown must let an in-flight request finish and answer, then close
// the connection, while idle connections are released immediately.
func TestServerShutdownDrainsInFlight(t *testing.T) {
	h := &blockingHandler{entered: make(chan struct{}, 1), release: make(chan struct{})}
	addr, srv := startServer(t, h, nil)

	busy, err := DialAuto(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	// A second connection stays idle — its server goroutine is parked
	// reading a frame and Shutdown must wake it without waiting.
	idle, err := DialAuto(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	type result struct {
		resp *msg.Response
		err  error
	}
	got := make(chan result, 1)
	go func() {
		resp, err := busy.Call(context.Background(), &msg.Request{Kind: msg.KindNext})
		got <- result{resp, err}
	}()
	<-h.entered // the request is now inside the handler

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutdownDone <- srv.Shutdown(ctx)
	}()
	// Shutdown must be waiting on the in-flight handler, not killing it.
	select {
	case r := <-got:
		t.Fatalf("call finished before release: %+v", r)
	case <-time.After(50 * time.Millisecond):
	}
	close(h.release)
	r := <-got
	if r.err != nil {
		t.Fatalf("in-flight call failed during drain: %v", r.err)
	}
	if r.resp.Pruned != 99 {
		t.Fatalf("in-flight response = %+v", r.resp)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// The drained server accepts nothing new.
	if _, err := DialAuto(addr, nil); err == nil {
		t.Fatal("dial after shutdown must fail")
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("second shutdown must be a no-op: %v", err)
	}
}

// Shutdown with an expired context falls back to a hard close and
// reports the context error.
func TestServerShutdownTimeout(t *testing.T) {
	h := &blockingHandler{entered: make(chan struct{}, 1), release: make(chan struct{})}
	addr, srv := startServer(t, h, nil)
	c, err := DialAuto(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	go c.Call(context.Background(), &msg.Request{Kind: msg.KindNext})
	<-h.entered

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	err = srv.Shutdown(ctx)
	close(h.release) // unblock the handler goroutine so wg.Wait returns
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("shutdown err = %v, want deadline exceeded", err)
	}
}

func TestTCPHandlerError(t *testing.T) {
	h := &echoHandler{err: errors.New("site exploded")}
	addr, _ := startServer(t, h, nil)
	c, err := DialAuto(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Call(context.Background(), &msg.Request{Kind: msg.KindNext})
	if err == nil || err.Error() != "site exploded" {
		t.Fatalf("err = %v, want handler error text", err)
	}
	// The connection survives handler errors.
	h.err = nil
	if _, err := c.Call(context.Background(), &msg.Request{Kind: msg.KindNext}); err != nil {
		t.Fatalf("connection should survive a handler error: %v", err)
	}
}

func TestTCPConcurrentClients(t *testing.T) {
	h := &echoHandler{resp: msg.Response{Pruned: 1}}
	addr, _ := startServer(t, h, nil)
	const clients = 8
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := DialAuto(addr, nil)
			if err != nil {
				errs[i] = err
				return
			}
			defer c.Close()
			for k := 0; k < 20; k++ {
				if _, err := c.Call(context.Background(), &msg.Request{Kind: msg.KindNext}); err != nil {
					errs[i] = fmt.Errorf("call %d: %w", k, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	if got := len(h.kinds()); got != clients*20 {
		t.Fatalf("server saw %d calls, want %d", got, clients*20)
	}
}

func TestTCPCancellation(t *testing.T) {
	block := make(chan struct{})
	h := handlerFunc(func(context.Context, *msg.Request) (*msg.Response, error) {
		<-block
		return &msg.Response{}, nil
	})
	addr, _ := startServer(t, h, nil)
	c, err := DialAuto(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = c.Call(ctx, &msg.Request{Kind: msg.KindNext})
	close(block)
	if err == nil {
		t.Fatal("blocked call must fail on cancellation")
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("cancellation took too long")
	}
}

type handlerFunc func(context.Context, *msg.Request) (*msg.Response, error)

func (f handlerFunc) Handle(ctx context.Context, req *msg.Request) (*msg.Response, error) {
	return f(ctx, req)
}

func TestTCPClientClose(t *testing.T) {
	h := &echoHandler{resp: msg.Response{}}
	addr, _ := startServer(t, h, nil)
	c, err := DialAuto(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal("double close must be idempotent")
	}
	if _, err := c.Call(context.Background(), &msg.Request{Kind: msg.KindNext}); !errors.Is(err, ErrClosed) {
		t.Fatalf("call after close = %v, want ErrClosed", err)
	}
}

func TestServerClose(t *testing.T) {
	h := &echoHandler{resp: msg.Response{}}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(h, nil)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(lis) }()
	c, err := DialAuto(lis.Addr().String(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Call(context.Background(), &msg.Request{Kind: msg.KindNext}); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve returned %v after Close", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Serve did not return after Close")
	}
	if err := srv.Close(); err != nil {
		t.Fatal("double close must be idempotent")
	}
	// Calls against the closed server fail.
	if _, err := c.Call(context.Background(), &msg.Request{Kind: msg.KindNext}); err == nil {
		t.Fatal("call against closed server must fail")
	}
	c.Close()
}

func TestDialFailure(t *testing.T) {
	if _, err := DialAuto("127.0.0.1:1", nil); err == nil {
		t.Skip("port 1 unexpectedly open")
	}
}
