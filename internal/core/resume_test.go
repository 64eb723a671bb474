package core

import (
	"bytes"
	"context"
	"fmt"
	"log/slog"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/obs/flight"
	"repro/internal/uncertain"
)

// TestResumedReadMatchesProtocolRound sweeps thresholds below the floor
// for DSUD and e-DSUD, in the full space and in a subspace read with its
// axes permuted, with and without site pruning: a ModeAuto read resumes
// from the store and must return the answer a full ModeProtocol round
// returns, every probability and home site bit-identical, while no store
// member is shipped up or broadcast again.
func TestResumedReadMatchesProtocolRound(t *testing.T) {
	ctx := context.Background()
	parts, _ := makeWorkload(t, 600, 3, 4, gen.Independent, 43)
	for _, sub := range []struct{ serve, read []int }{{nil, nil}, {[]int{0, 2}, []int{2, 0}}} {
		cluster, err := Open(ClusterConfig{Partitions: parts, Dims: 3})
		if err != nil {
			t.Fatal(err)
		}
		server, err := cluster.Serve(ctx, ServeConfig{Floor: 0.4, Dims: sub.serve})
		if err != nil {
			t.Fatal(err)
		}
		known := make(map[uncertain.TupleID]bool)
		for _, m := range server.Skyline() {
			known[m.Tuple.ID] = true
		}
		if len(known) == 0 {
			t.Fatalf("dims %v: empty store; pick another seed", sub.serve)
		}
		for _, algo := range []Algorithm{DSUD, EDSUD} {
			for _, noPrune := range []bool{false, true} {
				for _, q := range []float64{0.39, 0.33, 0.27, 0.2, 0.12} {
					name := fmt.Sprintf("dims %v %v noPrune=%v q=%v", sub.read, algo, noPrune, q)
					opts := Options{Threshold: q, Dims: sub.read, Algorithm: algo, DisableSitePruning: noPrune, Mode: ModeProtocol}
					full, err := server.Query(ctx, opts)
					if err != nil {
						t.Fatalf("%s: protocol: %v", name, err)
					}
					opts.Mode = ModeAuto
					opts.OnEvent = func(e Event) {
						if (e.Kind == EventToServer || e.Kind == EventBroadcast) && known[e.Tuple.ID] {
							t.Errorf("%s: store member %d sent again (%v)", name, e.Tuple.ID, e.Kind)
						}
					}
					resumed, err := server.Query(ctx, opts)
					if err != nil {
						t.Fatalf("%s: resumed: %v", name, err)
					}
					if resumed.Source != SourceProtocol || resumed.Resumed != len(known) {
						t.Fatalf("%s: source %v, resumed %d, want protocol from %d members", name, resumed.Source, resumed.Resumed, len(known))
					}
					sameAnswer(t, resumed.Skyline, full.Skyline, 0)
					for id, site := range full.Sites {
						if resumed.Sites[id] != site {
							t.Fatalf("%s: tuple %d home site: resumed %d, protocol %d", name, id, resumed.Sites[id], site)
						}
					}
				}
			}
		}
		cluster.Close()
	}
}

// Resumed reads race a stream of Server.Insert/Delete calls. Each read
// holds the update lock's read side from its store snapshot to the end of
// its round, so it sees the data after some whole number of updates: the
// answer must be the oracle's (at the churn tolerance) for one of the
// states between the updates done when it started and those begun when
// it returned. Every message waits 200µs, so rounds span many updates.
func TestResumedReadsRaceUpdates(t *testing.T) {
	ctx := context.Background()
	const floor = 0.3
	qs := []float64{0.25, 0.18, 0.1}
	parts, union := makeWorkload(t, 240, 2, 3, gen.Independent, 29)
	cluster, err := Open(ClusterConfig{Partitions: parts, Dims: 2, Latency: 200 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	server, err := cluster.Serve(ctx, ServeConfig{Floor: floor})
	if err != nil {
		t.Fatal(err)
	}

	// The update script and the oracle after each of its prefixes.
	type op struct {
		insert bool
		home   int
		tu     uncertain.Tuple
	}
	r := rand.New(rand.NewSource(29))
	mirror := make([]uncertain.DB, len(parts))
	for i := range parts {
		mirror[i] = parts[i].Clone()
	}
	oracle := func() [][]uncertain.SkylineMember {
		db := uncertain.Union(mirror)
		out := make([][]uncertain.SkylineMember, len(qs))
		for k, q := range qs {
			out[k] = db.Skyline(q, nil)
		}
		return out
	}
	states := [][][]uncertain.SkylineMember{oracle()}
	var ops []op
	nextID := uncertain.TupleID(len(union) + 1)
	for len(ops) < 40 {
		home := r.Intn(len(mirror))
		if r.Intn(2) == 0 {
			tu := uncertain.Tuple{ID: nextID, Point: geom.Point{0.3 * r.Float64(), 0.3 * r.Float64()}, Prob: 0.05 + 0.95*r.Float64()}
			nextID++
			ops = append(ops, op{true, home, tu})
			mirror[home] = append(mirror[home], tu)
		} else {
			k := r.Intn(len(mirror[home]))
			ops = append(ops, op{false, home, mirror[home][k]})
			mirror[home] = append(mirror[home][:k:k], mirror[home][k+1:]...)
		}
		states = append(states, oracle())
	}

	var begun, done atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, o := range ops {
			begun.Add(1)
			var err error
			if o.insert {
				err = server.Insert(ctx, o.home, o.tu)
			} else {
				err = server.Delete(ctx, o.home, o.tu)
			}
			if err != nil {
				t.Errorf("update %v: %v", o.tu, err)
			}
			done.Add(1)
		}
	}()
	for reader := 0; reader < 3; reader++ {
		wg.Add(1)
		go func(reader int) {
			defer wg.Done()
			for i := 0; done.Load() < int64(len(ops)) || i < 3; i++ {
				k := (reader + i) % len(qs)
				lo := done.Load()
				rep, err := server.Query(ctx, Options{Threshold: qs[k], Mode: ModeAuto})
				hi := begun.Load()
				if err != nil {
					t.Errorf("read q=%v: %v", qs[k], err)
					return
				}
				if rep.Resumed == 0 || rep.Source != SourceProtocol {
					t.Errorf("read q=%v: source %v, resumed %d; want a resumed protocol round", qs[k], rep.Source, rep.Resumed)
				}
				match := false
				for j := lo; j <= hi && !match; j++ {
					match = uncertain.MembersEqual(rep.Skyline, states[j][k], 1e-6)
				}
				if !match {
					t.Errorf("read q=%v between updates %d and %d: %d members match no oracle state there", qs[k], lo, hi, len(rep.Skyline))
				}
			}
		}(reader)
	}
	wg.Wait()
	if st := server.Stats(); st.Refreshes != 0 {
		t.Fatalf("in-band churn must not trigger refresh rounds, got %d", st.Refreshes)
	}
}

// A resumed read reports SourceProtocol, so Resumed is how its records
// tell it from a round from scratch: the flight record, the explain
// report and the query log line all carry it.
func TestResumedReadIsRecorded(t *testing.T) {
	ctx := context.Background()
	cluster, server := newTestServer(t, 300, 2, 3, 5, ServeConfig{Floor: 0.3})
	fr := flight.New(8)
	cluster.SetFlightRecorder(fr)
	var logs bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&logs, nil))

	rep, stats, err := server.QueryWithStats(ctx, Options{Threshold: 0.2, Mode: ModeAuto, Logger: logger})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Resumed == 0 || rep.Resumed != len(server.Skyline()) {
		t.Fatalf("resumed %d, want the store's %d members", rep.Resumed, len(server.Skyline()))
	}
	if r := fr.Snapshot()[0]; r.Resumed != rep.Resumed || r.Algorithm != "e-dsud" || r.Results != len(rep.Skyline) {
		t.Errorf("flight record: resumed %d, algorithm %q, results %d; want %d, e-dsud, %d", r.Resumed, r.Algorithm, r.Results, rep.Resumed, len(rep.Skyline))
	}
	var buf bytes.Buffer
	if err := WriteExplain(&buf, rep, stats); err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("resumed: %d result(s)", rep.Resumed); !strings.Contains(buf.String(), want) {
		t.Errorf("explain lacks %q:\n%s", want, buf.String())
	}
	if want := fmt.Sprintf("resumed=%d", rep.Resumed); !strings.Contains(logs.String(), want) {
		t.Errorf("query log lacks %q: %s", want, logs.String())
	}

	full, err := server.Query(ctx, Options{Threshold: 0.2, Mode: ModeProtocol, Logger: logger})
	if err != nil {
		t.Fatal(err)
	}
	if full.Resumed != 0 || fr.Snapshot()[1].Resumed != 0 {
		t.Errorf("a round from scratch reports resumed %d (flight %d)", full.Resumed, fr.Snapshot()[1].Resumed)
	}
}

// A read the store cannot resume runs a full round: another subspace, the
// Baseline, TopK, MaxResults, a forced recording, or an invalid store —
// which the read must not refresh either.
func TestResumeFallsBack(t *testing.T) {
	ctx := context.Background()
	_, server := newTestServer(t, 300, 3, 3, 7, ServeConfig{Floor: 0.3, Dims: []int{0, 1}})
	for _, opts := range []Options{
		{Threshold: 0.2, Dims: []int{0, 2}},
		{Threshold: 0.2, Dims: []int{1, 0}, Algorithm: Baseline},
		{Threshold: 0.2, Dims: []int{1, 0}, TopK: 3},
		{Threshold: 0.2, Dims: []int{1, 0}, MaxResults: 3},
		{Threshold: 0.2, Dims: []int{1, 0}, Record: true},
	} {
		opts.Mode = ModeAuto
		rep, err := server.Query(ctx, opts)
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		if rep.Resumed != 0 || rep.Source != SourceProtocol {
			t.Errorf("%+v: resumed %d from the store, source %v; want a full protocol round", opts, rep.Resumed, rep.Source)
		}
	}
	rep, err := server.Query(ctx, Options{Threshold: 0.2, Dims: []int{1, 0}, Mode: ModeAuto})
	if err != nil || rep.Resumed == 0 {
		t.Fatalf("same subspace as a set: resumed %d, err %v; want a resumed round", rep.Resumed, err)
	}
	server.Invalidate()
	rep, err = server.Query(ctx, Options{Threshold: 0.2, Dims: []int{0, 1}, Mode: ModeAuto})
	if err != nil || rep.Resumed != 0 {
		t.Fatalf("invalid store: resumed %d, err %v; want a full round", rep.Resumed, err)
	}
	if st := server.Stats(); st.Refreshes != 0 {
		t.Fatalf("an uncovered read refreshed an invalid store %d time(s)", st.Refreshes)
	}
}
