package transport

import (
	"context"
	"errors"
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/obs"
)

// fakeTelemetrySource fills deterministic snapshots with a counter that
// advances per fill, so subscribers can check delta reconstruction.
type fakeTelemetrySource struct {
	fills atomic.Int64
}

func (f *fakeTelemetrySource) FillTelemetry(t *codec.Telemetry) {
	n := f.fills.Add(1)
	t.Site = 7
	t.Tuples = 1000
	t.Requests = 100 + n
	t.WindowCount = n
	t.Bounds = append(t.Bounds[:0], 10_000, 20_000, 40_000)
	t.Counts = append(t.Counts[:0], uint64(n), 0, 1, 2)
	t.SLO = append(t.SLO[:0], codec.TelemetrySLO{Name: "query-p99", Current: 0.001, Target: 0.01, Burn: 0.1})
}

func TestMuxTelemetrySubscription(t *testing.T) {
	src := &fakeTelemetrySource{}
	addr, srv := startMuxServer(t, handlerFunc(sessionEcho))
	srv.SetTelemetrySource(src)
	mc := dialMux(t, addr)

	type push struct {
		seq      uint64
		requests int64
		counts   []uint64
		slo      string
	}
	pushes := make(chan push, 64)
	cancel, err := mc.SubscribeTelemetry(MinTelemetryInterval, func(tl *codec.Telemetry) {
		pushes <- push{
			seq:      tl.Seq,
			requests: tl.Requests,
			counts:   append([]uint64(nil), tl.Counts...),
			slo:      tl.SLO[0].Name,
		}
	})
	if err != nil {
		t.Fatalf("SubscribeTelemetry: %v", err)
	}

	// Collect a few pushes: sequences must be consecutive from 1 and the
	// delta-encoded counters must reconstruct the source's absolutes.
	deadline := time.After(10 * time.Second)
	var got []push
	for len(got) < 3 {
		select {
		case p := <-pushes:
			got = append(got, p)
		case <-deadline:
			t.Fatalf("timed out with %d pushes", len(got))
		}
	}
	for i, p := range got {
		if p.seq != uint64(i+1) {
			t.Fatalf("push %d: seq %d", i, p.seq)
		}
		if want := int64(100 + i + 1); p.requests != want {
			t.Fatalf("push %d: requests %d, want %d (delta reconstruction)", i, p.requests, want)
		}
		if p.counts[0] != uint64(i+1) || p.counts[3] != 2 {
			t.Fatalf("push %d: counts %v", i, p.counts)
		}
		if p.slo != "query-p99" {
			t.Fatalf("push %d: slo %q", i, p.slo)
		}
	}
	// The publisher counts a push after writing it, so the third frame can
	// reach this side before its count does.
	waitFor(t, time.Second, func() bool { return srv.TelemetryStats().Pushes >= 3 })
	if st := srv.TelemetryStats(); st.Subscribers != 1 || st.LastPushUnixNano == 0 {
		t.Fatalf("TelemetryStats = %+v", st)
	}

	// Ordinary RPCs keep working alongside the stream.
	resp, err := mc.Call(context.Background(), &Request{Kind: KindStatus, Session: 5})
	if err != nil || resp.Pruned != 5 {
		t.Fatalf("Call alongside stream: %v %+v", err, resp)
	}

	// Cancel stops the pushes and retires the server's publisher.
	cancel()
	waitFor(t, time.Second, func() bool { return srv.TelemetryStats().Subscribers == 0 })
	for len(pushes) > 0 {
		<-pushes
	}
	select {
	case p := <-pushes:
		t.Fatalf("push %d after cancel", p.seq)
	case <-time.After(3 * MinTelemetryInterval):
	}
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("condition not reached within %v", timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// A server with no telemetry source ignores subscriptions — the peer
// sees no pushes and no errors, exactly like an old binary — and the
// connection still serves RPCs.
func TestMuxTelemetryNoSource(t *testing.T) {
	addr, _ := startMuxServer(t, handlerFunc(sessionEcho))
	mc := dialMux(t, addr)
	var pushed atomic.Int64
	cancel, err := mc.SubscribeTelemetry(MinTelemetryInterval, func(*codec.Telemetry) { pushed.Add(1) })
	if err != nil {
		t.Fatalf("SubscribeTelemetry: %v", err)
	}
	defer cancel()
	resp, err := mc.Call(context.Background(), &Request{Kind: KindStatus, Session: 9})
	if err != nil || resp.Pruned != 9 {
		t.Fatalf("Call: %v %+v", err, resp)
	}
	time.Sleep(3 * MinTelemetryInterval)
	if n := pushed.Load(); n != 0 {
		t.Fatalf("%d pushes from a source-less server", n)
	}
}

// SubscribeTelemetry must reach the mux client through a full wrapper
// stack (Instrumented(Metered(Delayed(Retry(mux))))), and report
// ErrTelemetryUnsupported against a v1 peer — the legacy-build fallback.
func TestSubscribeTelemetryThroughStack(t *testing.T) {
	src := &fakeTelemetrySource{}
	addr, srv := startMuxServer(t, handlerFunc(sessionEcho))
	srv.SetTelemetrySource(src)

	retry := Retry(func() (Client, error) { return DialAuto(addr, nil) }, 3)
	var meter Meter
	stack := Instrumented(Metered(Delayed(retry, time.Millisecond), &meter), obs.NewRegistry(), "0")
	t.Cleanup(func() { stack.Close() })

	pushes := make(chan uint64, 16)
	cancel, err := SubscribeTelemetry(stack, MinTelemetryInterval, func(tl *codec.Telemetry) {
		pushes <- tl.Seq
	})
	if err != nil {
		t.Fatalf("SubscribeTelemetry through stack: %v", err)
	}
	defer cancel()
	select {
	case <-pushes:
	case <-time.After(10 * time.Second):
		t.Fatal("no push through wrapper stack")
	}
}

// Transports with no connection to push over reject the subscription
// cleanly.
func TestSubscribeTelemetryUnsupported(t *testing.T) {
	if _, err := SubscribeTelemetry(Local(handlerFunc(sessionEcho)), time.Second, func(*codec.Telemetry) {}); !errors.Is(err, ErrTelemetryUnsupported) {
		t.Fatalf("subscribe over Local = %v, want ErrTelemetryUnsupported", err)
	}
}

// The publisher's steady-state push path — fill, delta-encode, frame,
// write — must not allocate (the flight-recorder discipline for
// always-on paths).
func TestTelemetryPublisherZeroAlloc(t *testing.T) {
	src := &fakeTelemetrySource{}
	mw := &muxWriter{w: io.Discard}
	p := newTelemetryPublisher(src, mw, 1)
	now := time.Now().UnixNano()
	// Warm the buffers past the first full-frame anchor.
	for i := 0; i < 3; i++ {
		if err := p.push(now + int64(i)); err != nil {
			t.Fatalf("push: %v", err)
		}
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if err := p.push(now); err != nil {
			t.Fatalf("push: %v", err)
		}
	})
	if allocs != 0 {
		t.Fatalf("publisher push allocates %v per run, want 0", allocs)
	}
}

// Closing the client mid-stream must terminate the server's publisher
// via the dying connection (no goroutine leak waiting on a cancel that
// never comes).
func TestMuxTelemetryPublisherStopsOnDisconnect(t *testing.T) {
	src := &fakeTelemetrySource{}
	addr, srv := startMuxServer(t, handlerFunc(sessionEcho))
	srv.SetTelemetrySource(src)
	mc := dialMux(t, addr)
	if _, err := mc.SubscribeTelemetry(MinTelemetryInterval, func(*codec.Telemetry) {}); err != nil {
		t.Fatalf("SubscribeTelemetry: %v", err)
	}
	waitFor(t, 5*time.Second, func() bool { return srv.TelemetryStats().Subscribers == 1 })
	mc.Close()
	waitFor(t, 5*time.Second, func() bool { return srv.TelemetryStats().Subscribers == 0 })
}

// A concurrent mutex check: many subscribe/cancel cycles race ordinary
// calls on one connection (run under -race in CI).
func TestMuxTelemetryConcurrentWithCalls(t *testing.T) {
	src := &fakeTelemetrySource{}
	addr, srv := startMuxServer(t, handlerFunc(sessionEcho))
	srv.SetTelemetrySource(src)
	mc := dialMux(t, addr)

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				cancel, err := mc.SubscribeTelemetry(MinTelemetryInterval, func(*codec.Telemetry) {})
				if err != nil {
					t.Errorf("subscribe: %v", err)
					return
				}
				if _, err := mc.Call(context.Background(), &Request{Kind: KindStatus, Session: 1}); err != nil {
					t.Errorf("call: %v", err)
					return
				}
				cancel()
			}
		}()
	}
	wg.Wait()
	waitFor(t, 5*time.Second, func() bool { return srv.TelemetryStats().Subscribers == 0 })
}
