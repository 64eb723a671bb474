package site

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/msg"
	"repro/internal/obs/flight"
	"repro/internal/obs/slo"
	"repro/internal/transport"
	"repro/internal/uncertain"
)

// Status fields must stay consistent under concurrent mutation — run
// with -race. Writers hammer inserts, replicate deltas and query
// sessions while readers snapshot Status and probe KindStatus through
// the protocol.
func TestStatusUnderConcurrentUpdates(t *testing.T) {
	r := rand.New(rand.NewSource(83))
	eng := New(3, randomPart(r, 64, 2), 2, 0)
	eng.SetFlightRecorder(flight.New(8))
	ctx := context.Background()

	const writers = 4
	const opsPerWriter = 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < opsPerWriter; i++ {
				id := uncertain.TupleID(10_000 + w*opsPerWriter + i)
				tu := uncertain.Tuple{ID: id, Point: geom.Point{0.5, 0.5}, Prob: 0.5}
				if _, err := eng.Handle(ctx, &msg.Request{
					Kind: msg.KindInsert, Tuple: tu, Query: msg.Query{Threshold: 0.3},
				}); err != nil {
					t.Error(err)
					return
				}
				if _, err := eng.Handle(ctx, &msg.Request{
					Kind:   msg.KindReplicate,
					Tuples: []msg.Representative{{Tuple: tu}},
				}); err != nil {
					t.Error(err)
					return
				}
				sid := uint64(w*opsPerWriter + i + 1)
				if _, err := eng.Handle(ctx, &msg.Request{
					Kind: msg.KindInit, Session: sid,
					Query: msg.Query{Threshold: 0.3},
				}); err != nil {
					t.Error(err)
					return
				}
				if _, err := eng.Handle(ctx, &msg.Request{
					Kind: msg.KindEndQuery, Session: sid,
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for alive := true; alive; {
		select {
		case <-done:
			alive = false
		default:
		}
		st := eng.Status()
		if st.ID != 3 || st.Tuples < 64 || st.InFlight < 0 || st.UptimeSeconds < 0 {
			t.Fatalf("inconsistent status under load: %+v", st)
		}
		resp, err := eng.Handle(ctx, &msg.Request{Kind: msg.KindStatus})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Status == nil {
			t.Fatal("KindStatus returned no status")
		}
		// The probe itself is in flight while the snapshot is taken.
		if resp.Status.InFlight < 1 {
			t.Fatalf("in_flight = %d, want >= 1 (the probe itself)", resp.Status.InFlight)
		}
	}

	st := eng.Status()
	wantTuples := 64 + writers*opsPerWriter
	if st.Tuples != wantTuples {
		t.Fatalf("tuples = %d, want %d", st.Tuples, wantTuples)
	}
	if st.ReplicaVersion != uint64(writers*opsPerWriter) {
		t.Fatalf("replica version = %d, want %d", st.ReplicaVersion, writers*opsPerWriter)
	}
	if st.LastUpdateUnixNano == 0 {
		t.Fatal("last update never stamped")
	}
	if st.RequestsTotal == 0 || st.Sessions != 0 {
		t.Fatalf("requests=%d sessions=%d", st.RequestsTotal, st.Sessions)
	}
	// Every ended session left one flight record.
	if got := eng.FlightRecorder().Total(); got != uint64(writers*opsPerWriter) {
		t.Fatalf("flight records = %d, want %d", got, writers*opsPerWriter)
	}
}

// The status a coordinator polls carries the latency window's buckets, so
// windows merge across sites, and the SLO monitor's cached state. Status
// must read that state, not evaluate the monitor: an evaluation advances
// breach streaks.
func TestStatusTelemetryFields(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	eng := New(3, randomPart(r, 50, 2), 2, 0)
	if st := eng.Status(); len(st.WindowCounts) != 0 || len(st.SLO) != 0 {
		t.Fatalf("idle engine without a monitor reports %+v", st)
	}
	mon := slo.New(slo.Latency("query-p99", eng.Window(), 0.99, time.Second))
	cached := mon.Evaluate() // before any traffic: abstains on no samples
	eng.SetSLOMonitor(mon)

	initSite(t, eng, 0.3, nil)
	for i := 0; i < 5; i++ {
		if _, err := eng.Handle(context.Background(), &msg.Request{Kind: msg.KindNext}); err != nil {
			t.Fatal(err)
		}
	}

	resp, err := eng.Handle(context.Background(), &msg.Request{Kind: msg.KindStatus})
	if err != nil {
		t.Fatal(err)
	}
	var back msg.Response
	if err := transport.DecodeResponse(transport.AppendResponse(nil, resp, nil), &back); err != nil {
		t.Fatal(err)
	}
	st := back.Status
	if len(st.WindowBoundsNS) == 0 || len(st.WindowCounts) != len(st.WindowBoundsNS)+1 {
		t.Fatalf("window: %d bounds, %d counts", len(st.WindowBoundsNS), len(st.WindowCounts))
	}
	var n uint64
	for _, c := range st.WindowCounts {
		n += c
	}
	if n < 6 {
		t.Fatalf("window counts %d requests, want >= 6", n)
	}
	if len(st.SLO) != 1 || st.SLO[0].Name != "query-p99" {
		t.Fatalf("slo = %+v", st.SLO)
	}
	if got := st.SLO[0]; got.Current != cached[0].Current || got.Target != cached[0].Target || got.Burn != cached[0].Burn {
		t.Fatalf("status slo %+v is not the cached evaluation %+v", got, cached[0])
	}
	if again := mon.LastInto(nil); again[0].Samples != cached[0].Samples {
		t.Fatalf("Status re-evaluated the monitor: %+v", again[0])
	}
}
