package core

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"strings"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/gen"
	"repro/internal/msg"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/obs/transcript"
	"repro/internal/site"
	"repro/internal/transport"
)

// openTCPTimingCluster serves a two-site workload over real sockets and
// opens a cluster on it that records transcripts and flight records.
func openTCPTimingCluster(t *testing.T) (*Cluster, *flight.Recorder) {
	t.Helper()
	parts, _ := makeWorkload(t, 400, 3, 2, gen.Anticorrelated, 71)
	addrs := startTCPSites(t, parts, 3)
	fr := flight.New(4)
	cluster, err := Open(ClusterConfig{Addrs: addrs, Dims: 3, TranscriptDir: t.TempDir(), FlightRecorder: fr})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cluster.Close() })
	return cluster, fr
}

// Over real sockets, a traced query's every call is Timed and every reply
// carries the site's service time, which never exceeds the call as the
// coordinator timed it; the flight record splits each of the two sites'
// calls into wait and service. (The name predates the per-site timing that
// replaced the merged cross-site span timeline.)
func TestTCPTwoSiteMergedTimeline(t *testing.T) {
	cluster, fr := openTCPTimingCluster(t)
	tr := NewTrace()
	rep, traced, _ := recordQuery(t, cluster, fr, Options{Threshold: 0.3, Algorithm: EDSUD, Trace: tr})
	sum := tr.Summary()
	if len(sum.Sites) != cluster.Sites() {
		t.Fatalf("the trace timed %d sites, want %d", len(sum.Sites), cluster.Sites())
	}
	rec := fr.Snapshot()[fr.Total()-1]
	for i, st := range sum.Sites {
		if st.ServiceNS <= 0 || st.ServiceNS > st.CallNS {
			t.Errorf("site %d: ServiceNS %d, CallNS %d; want 0 < service <= call", i, st.ServiceNS, st.CallNS)
		}
		if got := rec.PerSite[i]; got.ServiceNS != st.ServiceNS || got.WaitNS != st.CallNS-st.ServiceNS {
			t.Errorf("site %d: flight record %+v, trace %+v", i, got, st)
		}
	}
	if rec.QueryID != rep.QueryID || rec.QueryID != rec.Session || rec.QueryID == 0 {
		t.Errorf("flight record query_id %x, session %x; report %x", rec.QueryID, rec.Session, rep.QueryID)
	}
	checkTimed(t, "traced", traced, true)
}

// Over real sockets, an untraced query's requests are not Timed, its
// replies carry no ServiceNS, and its flight record splits no site's calls
// into wait and service.
func TestTCPUntracedQueryShipsNoSpans(t *testing.T) {
	cluster, fr := openTCPTimingCluster(t)
	_, untraced, _ := recordQuery(t, cluster, fr, Options{Threshold: 0.3, Algorithm: EDSUD})
	checkTimed(t, "untraced", untraced, false)
	if got := fr.Snapshot()[fr.Total()-1].PerSite[0]; got.WaitNS != 0 || got.ServiceNS != 0 {
		t.Errorf("untraced flight record splits site 0: %+v", got)
	}
}

// checkTimed decodes every recorded message: requests must be Timed and
// replies carry ServiceNS exactly when timed is true.
func checkTimed(t *testing.T, name string, tr *transcript.Transcript, timed bool) {
	t.Helper()
	for _, m := range tr.Messages {
		if m.Dir == codec.TranscriptDirRequest {
			var req msg.Request
			if err := transport.DecodeRequest(m.Payload, &req); err != nil || req.Timed != timed {
				t.Fatalf("%s query: request %d to site %d decodes to Timed %v (%v)", name, m.Ordinal, m.Site, req.Timed, err)
			}
			continue
		}
		var resp msg.Response
		if err := transport.DecodeResponse(m.Payload, &resp); err != nil || (resp.ServiceNS > 0) != timed {
			t.Fatalf("%s query: reply %d from site %d carries ServiceNS %d (%v)", name, m.Ordinal, m.Site, resp.ServiceNS, err)
		}
	}
}

// Untraced queries have query_ids of their own: the coordinator logs each
// query under its session ID, its report carries it, and every request
// record a site logs for the query carries the same ID.
func TestUntracedQueriesLogDistinctQueryIDs(t *testing.T) {
	parts, _ := makeWorkload(t, 300, 2, 3, gen.Independent, 73)
	siteLogs := make([]bytes.Buffer, len(parts))
	clients := make([]transport.Client, len(parts))
	for i, part := range parts {
		eng := site.New(i, part, 2, 0)
		l, err := obs.NewLogger(&siteLogs[i], "json", slog.LevelDebug)
		if err != nil {
			t.Fatal(err)
		}
		eng.SetLogger(l, 0)
		clients[i] = transport.Local(eng)
	}
	cluster, err := NewClusterFromClients(clients, 2)
	if err != nil {
		t.Fatal(err)
	}
	var coordLog bytes.Buffer
	logger, err := obs.NewLogger(&coordLog, "json", slog.LevelInfo)
	if err != nil {
		t.Fatal(err)
	}

	seen := map[string]bool{}
	for q := 0; q < 2; q++ {
		coordLog.Reset()
		for i := range siteLogs {
			siteLogs[i].Reset()
		}
		rep, err := Run(context.Background(), cluster, Options{Threshold: 0.3, Logger: logger})
		if err != nil {
			t.Fatal(err)
		}
		ids := logQueryIDs(t, &coordLog)
		if len(ids) != 1 {
			t.Fatalf("query %d: coordinator logged query_ids %v, want one", q, ids)
		}
		qid := ids[0]
		if qid == obs.QueryID(0) || seen[qid] {
			t.Fatalf("query %d: query_id %s is zero or was already used", q, qid)
		}
		if got := obs.QueryID(rep.QueryID); got != qid {
			t.Fatalf("query %d: report query_id %s, logged %s", q, got, qid)
		}
		seen[qid] = true
		for i := range siteLogs {
			recs := logQueryIDs(t, &siteLogs[i])
			if len(recs) == 0 {
				t.Fatalf("query %d: site %d logged no requests", q, i)
			}
			for _, id := range recs {
				if id != qid {
					t.Fatalf("query %d: site %d logged a request under query_id %s, want %s", q, i, id, qid)
				}
			}
		}
	}
}

// A slow query's Warn record carries the per-phase breakdown only when
// the query was traced: an untraced query timed no phase, and logs none
// rather than every phase as 0s.
func TestSlowQueryLogsPhasesOnlyWhenTraced(t *testing.T) {
	parts, _ := makeWorkload(t, 300, 2, 3, gen.Independent, 73)
	cluster, err := Open(ClusterConfig{Partitions: parts, Dims: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	for _, traced := range []bool{false, true} {
		var buf bytes.Buffer
		logger, err := obs.NewLogger(&buf, "json", slog.LevelInfo)
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{Threshold: 0.3, Logger: logger, SlowQuery: time.Nanosecond}
		want := 0
		if traced {
			opts.Trace, want = NewTrace(), len(Phases())
		}
		if _, err := cluster.Query(context.Background(), opts); err != nil {
			t.Fatal(err)
		}
		var rec map[string]any
		if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
			t.Fatal(err)
		}
		if rec["msg"] != "slow query" || rec["level"] != "WARN" {
			t.Fatalf("traced=%v: logged %v, want one Warn slow-query record", traced, rec)
		}
		phases := 0
		for k := range rec {
			if strings.HasPrefix(k, "phase_") {
				phases++
			}
		}
		if phases != want {
			t.Errorf("traced=%v: the slow-query record has %d phase_* keys, want %d: %v", traced, phases, want, rec)
		}
	}
}

// logQueryIDs returns the query_id of every JSON log record in buf.
func logQueryIDs(t *testing.T, buf *bytes.Buffer) []string {
	t.Helper()
	var ids []string
	dec := json.NewDecoder(buf)
	for dec.More() {
		var rec struct {
			QueryID string `json:"query_id"`
		}
		if err := dec.Decode(&rec); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, rec.QueryID)
	}
	return ids
}
