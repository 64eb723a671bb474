package core

import (
	"context"
	"slices"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/transport"
	"repro/internal/uncertain"
)

func TestEventKindStrings(t *testing.T) {
	kinds := []EventKind{EventToServer, EventExpunge, EventBroadcast, EventPrune, EventReport, EventReject, EventRefill, EventFeedbackSelect}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || seen[s] {
			t.Errorf("kind %d: bad string %q", int(k), s)
		}
		seen[s] = true
	}
	if EventKind(42).String() == "" {
		t.Error("unknown kind must render")
	}
	e := Event{Kind: EventPrune, Iteration: 3, Count: 7}
	if !strings.Contains(e.String(), "prune") || !strings.Contains(e.String(), "7") {
		t.Errorf("prune event renders %q", e)
	}
	e = Event{Kind: EventReport, Iteration: 1, Site: 2, Prob: 0.5}
	if !strings.Contains(e.String(), "report") {
		t.Errorf("report event renders %q", e)
	}
	e = Event{Kind: EventRefill, Iteration: 2, Site: 1, Count: 0}
	if !strings.Contains(e.String(), "refill") || !strings.Contains(e.String(), "exhausted") {
		t.Errorf("exhausted refill renders %q", e)
	}
	e = Event{Kind: EventRefill, Iteration: 2, Site: 1, Count: 1}
	if !strings.Contains(e.String(), "refill") || strings.Contains(e.String(), "exhausted") {
		t.Errorf("delivering refill renders %q", e)
	}
	e = Event{Kind: EventFeedbackSelect, Iteration: 4, Site: 0, Prob: 0.7}
	if !strings.Contains(e.String(), "feedback-select") {
		t.Errorf("feedback-select event renders %q", e)
	}
}

// The event stream must be internally consistent with the report counters
// and with the progressive results.
func TestEventStreamConsistency(t *testing.T) {
	parts, _ := makeWorkload(t, 800, 3, 6, gen.Anticorrelated, 111)
	for _, algo := range []Algorithm{DSUD, EDSUD} {
		counts := map[EventKind]int{}
		pruneTotal, down := 0, 0
		refillDelivered := 0
		initialToServer := 0
		var reported []uncertain.SkylineMember
		rep := runAlgo(t, parts, 3, Options{
			Threshold: 0.3,
			Algorithm: algo,
			OnEvent: func(e Event) {
				counts[e.Kind]++
				down += e.Down
				switch e.Kind {
				case EventPrune:
					pruneTotal += e.Count
				case EventReport:
					reported = append(reported, uncertain.SkylineMember{Tuple: e.Tuple, Prob: e.Prob})
				case EventRefill:
					refillDelivered += e.Count
				case EventToServer:
					if e.Iteration == 0 {
						initialToServer++
					}
				}
			},
		})
		if counts[EventBroadcast] != rep.Broadcasts {
			t.Errorf("%v: %d broadcast events, report says %d", algo, counts[EventBroadcast], rep.Broadcasts)
		}
		if counts[EventExpunge] != rep.Expunged {
			t.Errorf("%v: %d expunge events, report says %d", algo, counts[EventExpunge], rep.Expunged)
		}
		if pruneTotal != rep.PrunedLocal {
			t.Errorf("%v: prune events total %d, report says %d", algo, pruneTotal, rep.PrunedLocal)
		}
		if counts[EventReport] != len(rep.Skyline) {
			t.Errorf("%v: %d report events, answer has %d", algo, counts[EventReport], len(rep.Skyline))
		}
		if counts[EventReport]+counts[EventReject] != rep.Broadcasts {
			t.Errorf("%v: every broadcast must end in report or reject (%d+%d vs %d)",
				algo, counts[EventReport], counts[EventReject], rep.Broadcasts)
		}
		if counts[EventFeedbackSelect] != rep.Broadcasts {
			t.Errorf("%v: %d feedback-select events, report says %d broadcasts",
				algo, counts[EventFeedbackSelect], rep.Broadcasts)
		}
		if counts[EventRefill] != rep.Refills {
			t.Errorf("%v: %d refill events, report says %d", algo, counts[EventRefill], rep.Refills)
		}
		// Every representative reached the coordinator either in the
		// initial broadcast or via a delivering refill.
		if counts[EventToServer] != initialToServer+refillDelivered {
			t.Errorf("%v: %d to-server events vs %d initial + %d refilled",
				algo, counts[EventToServer], initialToServer, refillDelivered)
		}
		if initialToServer > len(parts) {
			t.Errorf("%v: %d initial to-server events from %d sites", algo, initialToServer, len(parts))
		}
		// Every to-server event is one up-tuple, and the events say what
		// went down; together with the summaries the fresh cluster's Init
		// fetched, one up-tuple per point, they are the whole tuple
		// bandwidth.
		wantTuples := int64(counts[EventToServer]) + int64(down) + int64(certainSkylinePoints(parts, nil))
		if rep.Bandwidth.Tuples() != wantTuples {
			t.Errorf("%v: bandwidth %d, events imply %d", algo, rep.Bandwidth.Tuples(), wantTuples)
		}
		if !uncertain.MembersEqual(reported, rep.Skyline, 1e-12) {
			t.Errorf("%v: report events diverge from the answer", algo)
		}
	}
}

// Replay the §5.3 example and assert the protocol narrative: the three
// answer tuples are reported in the paper's order, and the two dominated
// queued tuples never get broadcast.
func TestPaperExampleEventTrace(t *testing.T) {
	sites := paperExampleSites()
	clients := make([]transport.Client, len(sites))
	for i, s := range sites {
		clients[i] = s.client()
	}
	cluster, err := NewClusterFromClients(clients, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	var broadcastIDs, reportIDs, expungeIDs []uncertain.TupleID
	_, err = Run(context.Background(), cluster, Options{
		Threshold: 0.3,
		Algorithm: EDSUD,
		OnEvent: func(e Event) {
			switch e.Kind {
			case EventBroadcast:
				broadcastIDs = append(broadcastIDs, e.Tuple.ID)
			case EventReport:
				reportIDs = append(reportIDs, e.Tuple.ID)
			case EventExpunge:
				expungeIDs = append(expungeIDs, e.Tuple.ID)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// The answer arrives in the worked example's order: (6,6), (8,4), (3,8).
	wantReports := []uncertain.TupleID{1, 2, 3}
	if len(reportIDs) != len(wantReports) {
		t.Fatalf("reported %v, want %v", reportIDs, wantReports)
	}
	for i, id := range wantReports {
		if reportIDs[i] != id {
			t.Fatalf("report order %v, want %v", reportIDs, wantReports)
		}
	}
	// Tuples 4 (6.5,7) and 7 (6.4,7.5) are the Observation-2 victims: they
	// must be expunged and never broadcast.
	neverBroadcast := map[uncertain.TupleID]bool{4: true, 7: true}
	for _, id := range broadcastIDs {
		if neverBroadcast[id] {
			t.Fatalf("tuple %d was broadcast despite its sub-threshold bound", id)
		}
	}
	expunged := map[uncertain.TupleID]bool{}
	for _, id := range expungeIDs {
		expunged[id] = true
	}
	for id := range neverBroadcast {
		if !expunged[id] {
			t.Errorf("tuple %d should have been expunged", id)
		}
	}
}

// certainSkylinePoints counts the points of every partition's certain
// skyline on dims, each point once per partition: the tuples a cold Init
// fan-out ships up as the sites' summaries.
func certainSkylinePoints(parts []uncertain.DB, dims []int) int {
	n := 0
	for _, part := range parts {
		var kept []geom.Point
		for _, tu := range part {
			dominated := slices.ContainsFunc(part, func(o uncertain.Tuple) bool { return o.Point.DominatesIn(tu.Point, dims) })
			if !dominated && !slices.ContainsFunc(kept, func(p geom.Point) bool { return p.Equal(tu.Point) }) {
				kept = append(kept, tu.Point)
			}
		}
		n += len(kept)
	}
	return n
}
