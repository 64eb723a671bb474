package transport

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/msg"
)

// sessionEcho answers every request with Pruned = int(req.Session), so a
// test can verify responses are demultiplexed to the right caller.
func sessionEcho(ctx context.Context, req *msg.Request) (*msg.Response, error) {
	return &msg.Response{Pruned: int(req.Session)}, nil
}

func startMuxServer(t *testing.T, h Handler) (string, *Server) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	s := NewServer(h, nil)
	go s.Serve(lis)
	t.Cleanup(func() { s.Close() })
	return lis.Addr().String(), s
}

func dialMux(t *testing.T, addr string) *MuxClient {
	t.Helper()
	cl, err := DialAuto(addr, nil)
	if err != nil {
		t.Fatalf("DialAuto: %v", err)
	}
	mc, ok := cl.(*MuxClient)
	if !ok {
		t.Fatalf("DialAuto returned %T, want *MuxClient", cl)
	}
	t.Cleanup(func() { mc.Close() })
	return mc
}

func TestMuxConcurrentCalls(t *testing.T) {
	addr, _ := startMuxServer(t, handlerFunc(sessionEcho))
	mc := dialMux(t, addr)

	const callers = 32
	const perCaller = 25
	var wg sync.WaitGroup
	errCh := make(chan error, callers)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perCaller; i++ {
				want := uint64(g*perCaller + i + 1)
				resp, n, err := mc.CallBytes(context.Background(), &msg.Request{Kind: msg.KindStatus, Session: want})
				if err != nil {
					errCh <- fmt.Errorf("caller %d call %d: %v", g, i, err)
					return
				}
				if resp.Pruned != int(want) {
					errCh <- fmt.Errorf("caller %d call %d: demux mixed responses: got %d want %d", g, i, resp.Pruned, want)
					return
				}
				if n <= 0 {
					errCh <- fmt.Errorf("caller %d call %d: no byte attribution (n=%d)", g, i, n)
					return
				}
			}
			errCh <- nil
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestMuxCancelKeepsConnectionUsable pins the headline mux property:
// cancelling one in-flight call must neither kill the shared connection
// nor disturb other callers.
func TestMuxCancelKeepsConnectionUsable(t *testing.T) {
	entered := make(chan struct{}, 1)
	cancelled := make(chan struct{}, 1)
	h := handlerFunc(func(ctx context.Context, req *msg.Request) (*msg.Response, error) {
		if req.Session == 999 { // the victim request parks until cancelled
			entered <- struct{}{}
			<-ctx.Done()
			cancelled <- struct{}{}
			return nil, ctx.Err()
		}
		return sessionEcho(ctx, req)
	})
	addr, _ := startMuxServer(t, h)
	mc := dialMux(t, addr)

	// A bystander call in flight... (proves cancellation is per-request)
	bystander := make(chan error, 1)
	go func() {
		resp, err := mc.Call(context.Background(), &msg.Request{Kind: msg.KindStatus, Session: 7})
		if err == nil && resp.Pruned != 7 {
			err = fmt.Errorf("bystander got %d want 7", resp.Pruned)
		}
		bystander <- err
	}()

	ctx, cancel := context.WithCancel(context.Background())
	victim := make(chan error, 1)
	go func() {
		_, err := mc.Call(ctx, &msg.Request{Kind: msg.KindStatus, Session: 999})
		victim <- err
	}()
	<-entered // the victim is in the handler, mid-flight
	cancel()

	if err := <-victim; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled call: got %v, want context.Canceled", err)
	}
	select {
	case <-cancelled:
		// FrameCancel reached the server and cancelled the handler ctx.
	case <-time.After(5 * time.Second):
		t.Fatal("server handler never saw the cancellation")
	}
	if err := <-bystander; err != nil {
		t.Fatalf("bystander call disturbed by cancellation: %v", err)
	}

	// ...and the connection must still answer new calls afterwards.
	for i := 1; i <= 10; i++ {
		resp, err := mc.Call(context.Background(), &msg.Request{Kind: msg.KindStatus, Session: uint64(i)})
		if err != nil {
			t.Fatalf("call %d after cancellation: connection unusable: %v", i, err)
		}
		if resp.Pruned != i {
			t.Fatalf("call %d after cancellation: got %d", i, resp.Pruned)
		}
	}
}

// TestDialAutoRefusesOtherWireVersion: a peer that does not echo the
// hello — here one that answers the previous generation's, and one that
// just hangs up — is a typed ErrWireVersion, not a fallback.
func TestDialAutoRefusesOtherWireVersion(t *testing.T) {
	for name, answer := range map[string][]byte{
		"older generation": {0xD5, 'S', 'Q', '2', 2},
		"hangs up":         nil,
	} {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		go func() {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			io.ReadFull(conn, make([]byte, 5))
			conn.Write(answer)
			conn.Close()
		}()
		cl, err := DialAuto(lis.Addr().String(), nil)
		if !errors.Is(err, ErrWireVersion) {
			if cl != nil {
				cl.Close()
			}
			t.Errorf("%s: DialAuto = %v, want ErrWireVersion", name, err)
		}
		lis.Close()
	}
}

// TestServerRefusesOtherWireVersion: the server closes a connection that
// opens with anything but this build's hello, without answering.
func TestServerRefusesOtherWireVersion(t *testing.T) {
	addr, _ := startMuxServer(t, handlerFunc(sessionEcho))
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.Write([]byte{0xD5, 'S', 'Q', '2', 2})
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if n, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("read after a foreign hello = (%d, %v), want EOF", n, err)
	}
}

// TestMuxMalformedRequestKeepsConnection: a frame whose CRC passes but
// whose payload is not a request is answered with an error for that id,
// and the calls pipelined before and after it on the same connection
// succeed.
func TestMuxMalformedRequestKeepsConnection(t *testing.T) {
	addr, _ := startMuxServer(t, handlerFunc(sessionEcho))
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	hello := codec.MuxHandshake()
	conn.Write(hello[:])
	if _, err := io.ReadFull(conn, hello[:]); err != nil {
		t.Fatalf("handshake: %v", err)
	}

	good := func(session uint64) []byte {
		return AppendRequest(nil, &msg.Request{Kind: msg.KindStatus, Session: session})
	}
	var out []byte
	out = codec.AppendFrame(out, codec.FrameRequest, 1, good(11))
	out = codec.AppendFrame(out, codec.FrameRequest, 2, []byte{0xFF, 0xFF, 0xFF}) // unknown mask bits, unterminated kind
	out = codec.AppendFrame(out, codec.FrameRequest, 3, good(33))
	if _, err := conn.Write(out); err != nil {
		t.Fatal(err)
	}

	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	frames := codec.NewFrameReader(conn)
	sizes, errs := map[uint64]int{}, map[uint64]error{}
	for len(sizes)+len(errs) < 3 {
		fr, _, err := frames.ReadFrame()
		if err != nil {
			t.Fatalf("connection dropped after %d good, %d failed answers: %v", len(sizes), len(errs), err)
		}
		var resp msg.Response
		if err := DecodeResponse(fr.Payload, &resp); err != nil {
			errs[fr.ID] = err
		} else {
			sizes[fr.ID] = resp.Pruned
		}
	}
	if sizes[1] != 11 || sizes[3] != 33 {
		t.Fatalf("good calls around the malformed frame: sizes %v, errors %v", sizes, errs)
	}
	if err := errs[2]; err == nil || !strings.Contains(err.Error(), ErrWire.Error()) {
		t.Fatalf("malformed frame answered with %v, want the decode error", err)
	}
}

func TestMuxWorkerLimitBounds(t *testing.T) {
	var inFlight, peak atomic.Int64
	release := make(chan struct{})
	h := handlerFunc(func(ctx context.Context, req *msg.Request) (*msg.Response, error) {
		cur := inFlight.Add(1)
		defer inFlight.Add(-1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		select {
		case <-release:
		case <-ctx.Done():
		}
		return &msg.Response{}, nil
	})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	s := NewServer(h, nil)
	s.SetWorkerLimit(2)
	go s.Serve(lis)
	t.Cleanup(func() { s.Close() })
	mc := dialMux(t, lis.Addr().String())

	const calls = 6
	var wg sync.WaitGroup
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mc.Call(context.Background(), &msg.Request{Kind: msg.KindStatus})
		}()
	}
	// Give the dispatch loop time to (incorrectly) overshoot the limit.
	time.Sleep(100 * time.Millisecond)
	if got := peak.Load(); got > 2 {
		t.Fatalf("worker limit 2 exceeded: %d handlers in flight", got)
	}
	close(release)
	wg.Wait()
	if got := peak.Load(); got > 2 {
		t.Fatalf("worker limit 2 exceeded after release: %d", got)
	}
}

// TestMuxBrokenConnectionFailsInFlight: when the peer vanishes, every
// pending call errors out and later calls fail fast (the retry layer is
// what redials, not the mux client).
func TestMuxBrokenConnectionFailsInFlight(t *testing.T) {
	block := make(chan struct{})
	h := handlerFunc(func(ctx context.Context, req *msg.Request) (*msg.Response, error) {
		<-block
		return &msg.Response{}, nil
	})
	addr, s := startMuxServer(t, h)
	mc := dialMux(t, addr)

	const callers = 4
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		go func() {
			_, err := mc.Call(context.Background(), &msg.Request{Kind: msg.KindStatus})
			errs <- err
		}()
	}
	time.Sleep(50 * time.Millisecond) // let the calls get on the wire
	close(block)
	s.Close() // hard-close: in-flight responses may or may not make it

	deadline := time.After(5 * time.Second)
	failures := 0
	for i := 0; i < callers; i++ {
		select {
		case err := <-errs:
			if err != nil {
				failures++
			}
		case <-deadline:
			t.Fatalf("call %d still blocked after server close", i)
		}
	}
	// At minimum the client must not deadlock; once broken, new calls
	// must fail immediately rather than hang.
	done := make(chan error, 1)
	go func() {
		_, err := mc.Call(context.Background(), &msg.Request{Kind: msg.KindStatus})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("call on a broken connection succeeded")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("call on a broken connection hung")
	}
}

// TestRetryOverMuxRedials: the retry layer composes with mux — a dead
// shared connection fails concurrent calls, and they all recover onto
// one fresh connection.
func TestRetryOverMuxRedials(t *testing.T) {
	addrA, sA := startMuxServer(t, handlerFunc(sessionEcho))
	var addr atomic.Value
	addr.Store(addrA)
	rc := Retry(func() (Client, error) {
		return DialAuto(addr.Load().(string), nil)
	}, 5)
	defer rc.Close()

	if _, err := rc.Call(context.Background(), &msg.Request{Kind: msg.KindStatus, Session: 1}); err != nil {
		t.Fatalf("warm-up call: %v", err)
	}

	// Move the "site" to a new address and kill the old one: the shared
	// mux connection dies under the retry layer's feet.
	addrB, _ := startMuxServer(t, handlerFunc(sessionEcho))
	addr.Store(addrB)
	sA.Close()

	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			want := uint64(i + 10)
			resp, err := rc.Call(context.Background(), &msg.Request{Kind: msg.KindStatus, Session: want})
			if err != nil {
				errCh <- fmt.Errorf("call %d: %v", i, err)
				return
			}
			if resp.Pruned != int(want) {
				errCh <- fmt.Errorf("call %d: got %d want %d", i, resp.Pruned, want)
				return
			}
			errCh <- nil
		}(i)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		if err != nil {
			t.Fatal(err)
		}
	}
	if st := rc.Stats(); st.Redials < 1 {
		t.Fatalf("expected at least one redial, stats: %+v", st)
	}
}
