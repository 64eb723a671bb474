package site

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/geom"
	"repro/internal/msg"
	"repro/internal/obs/flight"
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
// windows merge across sites and the coordinator can judge them.
func TestStatusTelemetryFields(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	eng := New(3, randomPart(r, 50, 2), 2, 0)
	if st := eng.Status(); len(st.WindowCounts) != 0 {
		t.Fatalf("idle engine reports %+v", st)
	}

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
}

// A site built before the coordinator judged SLOs still ships its own
// verdicts under "slo" in the status document. In a mixed-version cluster
// that key must decode cleanly and be ignored.
func TestStatusDecodesOldSLOKey(t *testing.T) {
	r := rand.New(rand.NewSource(62))
	eng := New(4, randomPart(r, 50, 2), 2, 0)
	initSite(t, eng, 0.3, nil)
	resp, err := eng.Handle(context.Background(), &msg.Request{Kind: msg.KindStatus})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := json.Marshal(resp.Status)
	if err != nil {
		t.Fatal(err)
	}
	// The status document is the frame's last field, after its uvarint
	// length; swap in the old site's document.
	enc := transport.AppendResponse(nil, resp, nil)
	head := len(enc) - len(doc) - len(binary.AppendUvarint(nil, uint64(len(doc))))
	if head < 0 || !bytes.HasSuffix(enc, doc) {
		t.Fatalf("the status document is not the frame's tail: %x", enc)
	}
	old := append(doc[:len(doc)-1:len(doc)-1],
		`,"slo":[{"name":"request_p99","current":0.5,"target":0.25,"burn":2,"breached":true}]}`...)
	enc = append(binary.AppendUvarint(enc[:head:head], uint64(len(old))), old...)

	var back msg.Response
	if err := transport.DecodeResponse(enc, &back); err != nil {
		t.Fatalf("old site's status: %v", err)
	}
	if back.Status == nil || !reflect.DeepEqual(*back.Status, *resp.Status) {
		t.Fatalf("old site's status decoded to %+v, want %+v", back.Status, resp.Status)
	}
}
