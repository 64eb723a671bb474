package core

import (
	"bytes"
	"context"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/codec"
	"repro/internal/gen"
	"repro/internal/msg"
	"repro/internal/obs/flight"
	"repro/internal/obs/transcript"
	"repro/internal/transport"
	"repro/internal/uncertain"
)

// The transcript package mirrors core's phase and algorithm identities
// without importing core (it sits below it). Pin the mirrors so a drift
// in either package fails here, not in a stale transcript rendering.
func TestTranscriptMirrorsCoreConstants(t *testing.T) {
	pairs := []struct {
		mirror uint8
		phase  Phase
	}{
		{transcript.PhaseToServer, PhaseToServer},
		{transcript.PhaseFeedbackSelect, PhaseFeedbackSelect},
		{transcript.PhaseServerDelivery, PhaseServerDelivery},
		{transcript.PhaseLocalPruning, PhaseLocalPruning},
	}
	for _, p := range pairs {
		if p.mirror != uint8(p.phase) {
			t.Errorf("transcript phase %d != core %v (%d)", p.mirror, p.phase, p.phase)
		}
	}
	// Up to and including algorithmEnd: a retired number renders as the
	// same Algorithm(n) fallback on both sides.
	for a := Baseline; a <= algorithmEnd; a++ {
		if got := transcript.AlgorithmName(uint8(a)); got != a.String() {
			t.Errorf("AlgorithmName(%d) = %q, core says %q", uint8(a), got, a.String())
		}
	}
	for _, k := range []msg.Kind{msg.KindInit, msg.KindNext, msg.KindShipAll} {
		if transcript.PhaseOf(k) != transcript.PhaseToServer {
			t.Errorf("PhaseOf(%v) = %d, want to-server", k, transcript.PhaseOf(k))
		}
	}
	if transcript.PhaseOf(msg.KindEvaluate) != transcript.PhaseServerDelivery {
		t.Error("PhaseOf(Evaluate) must map to server-delivery")
	}
}

// recordQuery runs one forced-record query and returns the transcript its
// flight record names.
func recordQuery(t *testing.T, cluster *Cluster, fr *flight.Recorder, opts Options) (*Report, *transcript.Transcript, string) {
	t.Helper()
	before := fr.Total()
	opts.Record = true
	rep, err := Run(context.Background(), cluster, opts)
	if err != nil {
		t.Fatal(err)
	}
	recs := fr.Snapshot()
	if fr.Total() == before || len(recs) == 0 {
		t.Fatal("forced recording left no flight record")
	}
	r := recs[len(recs)-1]
	if r.TranscriptErr != "" {
		t.Fatalf("recording failed: %s", r.TranscriptErr)
	}
	if r.Transcript == "" {
		t.Fatal("recording wrote no file despite a sink directory")
	}
	tr, err := transcript.ReadFile(r.Transcript)
	if err != nil {
		t.Fatalf("reading %s: %v", r.Transcript, err)
	}
	if tr.Header.QueryID != r.QueryID || tr.Header.Session != r.Session {
		t.Fatalf("transcript header %+v does not match its flight record %+v", tr.Header, r)
	}
	return rep, tr, r.Transcript
}

// A query recorded on the in-process transport must replay offline to
// the identical skyline, delivery ordinals and tallies, for every
// algorithm in the family.
func TestRecordReplayLocal(t *testing.T) {
	parts, _ := makeWorkload(t, 500, 3, 4, gen.Anticorrelated, 71)
	fr := flight.New(8)
	cluster, err := Open(ClusterConfig{
		Partitions:     parts,
		Dims:           3,
		TranscriptDir:  t.TempDir(),
		FlightRecorder: fr,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	for _, opts := range []Options{
		{Threshold: 0.3, Algorithm: DSUD},
		{Threshold: 0.3, Algorithm: EDSUD},
		{Threshold: 0.3, Algorithm: EDSUD, Dims: []int{0, 2}},
		{Threshold: 0.3, Algorithm: EDSUD, MaxResults: 3},
		{Threshold: 0.5, Algorithm: Baseline},
	} {
		rep, tr, _ := recordQuery(t, cluster, fr, opts)
		if tr.Header.Algorithm != uint8(opts.Algorithm) {
			t.Fatalf("%v: header algorithm %d", opts.Algorithm, tr.Header.Algorithm)
		}
		res, err := Replay(context.Background(), tr, nil)
		if err != nil {
			t.Fatalf("%v: replay: %v", opts.Algorithm, err)
		}
		for _, m := range res.Mismatches {
			t.Errorf("%v: %s", opts.Algorithm, m)
		}
		if len(res.Report.Skyline) != len(rep.Skyline) {
			t.Fatalf("%v: replay skyline %d vs live %d", opts.Algorithm, len(res.Report.Skyline), len(rep.Skyline))
		}
	}
}

// A replayed evaluate must match the recorded one in its refill bit as
// well as in its feedback tuple: a recording is answered only to the
// request it recorded, and a mismatch names the site and the ordinal.
func TestReplayClientComparesRefill(t *testing.T) {
	feed := msg.Feedback{Tuple: uncertain.Tuple{ID: 9, Point: []float64{0.5, 0.5}, Prob: 0.5}, HomeLocalProb: 0.4}
	recorded := msg.Request{Kind: msg.KindEvaluate, Feed: feed}
	c := &replayClient{site: 2, exs: []transcript.Exchange{{
		Kind:     int64(msg.KindEvaluate),
		Request:  codec.TranscriptMessage{Payload: transport.AppendRequest(nil, &recorded)},
		Response: codec.TranscriptMessage{Payload: transport.AppendResponse(nil, &msg.Response{CrossProb: 0.5}, nil)},
	}}}
	sent := recorded
	sent.Refill = true
	if _, err := c.Call(context.Background(), &sent); err == nil ||
		!strings.Contains(err.Error(), "replay site 2 ordinal 0: engine sent refill=true, recording holds refill=false") {
		t.Fatalf("a refill the recording does not hold: %v", err)
	}
	if resp, err := c.Call(context.Background(), &recorded); err != nil || resp.CrossProb != 0.5 || c.remaining() != 0 {
		t.Fatalf("the recorded request: %+v, %v", resp, err)
	}
}

// Transcripts recorded over TCP by the build whose loop waited once per
// refill (PR 22, dsud-query -record against four dsud-site daemons:
// e-DSUD and DSUD at q = 0.3, e-DSUD top-3 at q = 0.1) replay exactly
// where this build sends each site the same kinds in the same order: DSUD
// and top-k. The e-DSUD recording diverges where this build defers its
// first expunged candidate's refill to the next broadcast: site 1's
// ordinal 1, an evaluate with a refill where the recording holds the
// Next of a standalone wave. pr40-edsud.dstr was recorded by this build
// the same way (dsud-gen -n 2000 -d 3 -m 4 -values independent -seed 22,
// e-DSUD at q = 0.3; nine deferred refills) and replays exactly.
func TestParentTranscriptsReplayExactly(t *testing.T) {
	for name, want := range map[string]struct {
		results, refills int64
		diverges         string
	}{
		"pr22-edsud.dstr": {15, 24, "replay site 1 ordinal 1: engine sent evaluate with a refill, recording holds next"},
		"pr22-dsud.dstr":  {15, 22, ""},
		"pr22-topk.dstr":  {3, 31, ""},
		"pr40-edsud.dstr": {43, 57, ""},
	} {
		tr, err := transcript.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		if tr.Summary == nil || tr.Summary.Results != want.results || tr.Summary.Refills != want.refills {
			t.Fatalf("%s: recorded summary %+v, want %d results and %d refills", name, tr.Summary, want.results, want.refills)
		}
		res, err := Replay(context.Background(), tr, nil)
		if want.diverges != "" {
			if err == nil || !strings.Contains(err.Error(), want.diverges) {
				t.Errorf("%s: replay ended with %v, want the divergence %q", name, err, want.diverges)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, m := range res.Mismatches {
			t.Errorf("%s: %s", name, m)
		}
	}
}

// The acceptance pin: a query recorded over real TCP (v2 mux, exact
// per-request byte attribution) replays offline byte-for-byte —
// identical skyline set and order, delivery ordinals, per-site
// shipped/pruned tallies, wire-byte totals and delivery-curve AUC.
func TestRecordReplayTCP(t *testing.T) {
	parts, union := makeWorkload(t, 600, 3, 2, gen.Anticorrelated, 73)
	addrs := startTCPSites(t, parts, 3)
	fr := flight.New(4)
	cluster, err := Open(ClusterConfig{
		Addrs:          addrs,
		Dims:           3,
		TranscriptDir:  t.TempDir(),
		FlightRecorder: fr,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	var live []Result
	rep, tr, _ := recordQuery(t, cluster, fr, Options{Threshold: 0.3, Algorithm: EDSUD,
		OnResult: func(r Result) { live = append(live, r) }})
	if !uncertain.MembersEqual(rep.Skyline, union.Skyline(0.3, nil), 1e-9) {
		t.Fatal("live TCP query disagreed with oracle")
	}

	// The mux transport attributes bytes per request, so the recorded
	// messages must carry them and the summary totals must match.
	var wire int64
	for _, m := range tr.Messages {
		wire += m.WireBytes
	}
	if wire == 0 {
		t.Fatal("TCP recording carried no per-message wire bytes")
	}
	if tr.Summary == nil {
		t.Fatal("recording has no summary frame")
	}
	if wire != tr.Summary.Bytes {
		t.Fatalf("per-message wire bytes sum %d, summary pinned %d", wire, tr.Summary.Bytes)
	}

	res, err := Replay(context.Background(), tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range res.Mismatches {
		t.Error(m)
	}
	if res.Report.Bandwidth.Bytes != tr.Summary.Bytes {
		t.Fatalf("replayed %d wire bytes, recording pinned %d", res.Report.Bandwidth.Bytes, tr.Summary.Bytes)
	}
	if res.Report.Curve == nil || res.Report.Curve.AUCBandwidth != tr.Summary.AUCBandwidth {
		t.Fatal("replay did not reproduce the recorded bandwidth AUC")
	}
	// Delivery must reproduce exactly: same tuples, same 1-based
	// ordinals, same order as the live run streamed them.
	if len(res.Delivered) != len(live) {
		t.Fatalf("replay delivered %d results, live delivered %d", len(res.Delivered), len(live))
	}
	for i, r := range res.Delivered {
		if r.Index != i+1 {
			t.Fatalf("delivery %d carried ordinal %d", i, r.Index)
		}
		if r.Tuple.ID != live[i].Tuple.ID || r.GlobalProb != live[i].GlobalProb {
			t.Fatalf("delivery %d: replayed tuple %d (P=%v), live was tuple %d (P=%v)",
				i, r.Tuple.ID, r.GlobalProb, live[i].Tuple.ID, live[i].GlobalProb)
		}
	}
}

// A tampered summary must surface as mismatches; a tampered feedback
// payload must fail the replay loudly at the divergent call.
func TestReplayDetectsTampering(t *testing.T) {
	parts, _ := makeWorkload(t, 400, 3, 3, gen.Independent, 79)
	fr := flight.New(4)
	cluster, err := Open(ClusterConfig{Partitions: parts, Dims: 3, TranscriptDir: t.TempDir(), FlightRecorder: fr})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	_, tr, path := recordQuery(t, cluster, fr, Options{Threshold: 0.3, Algorithm: EDSUD})

	tr.Summary.Results++
	tr.Summary.Iterations += 5
	res, err := Replay(context.Background(), tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ok() || len(res.Mismatches) < 2 {
		t.Fatalf("tampered summary produced %d mismatches: %v", len(res.Mismatches), res.Mismatches)
	}

	// Rewrite one Evaluate request with a different feedback tuple: the
	// engine's own (deterministic) choice then disagrees with the
	// recording and the stub site rejects the call.
	tr2, err := transcript.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tampered := false
	for i := range tr2.Messages {
		m := &tr2.Messages[i]
		if m.Dir != codec.TranscriptDirRequest || m.Kind != int64(msg.KindEvaluate) {
			continue
		}
		var req msg.Request
		if err := transport.DecodeRequest(m.Payload, &req); err != nil {
			t.Fatal(err)
		}
		req.Feed.Tuple.ID += 1 << 40
		m.Payload = transport.AppendRequest(nil, &req)
		tampered = true
		break
	}
	if !tampered {
		t.Fatal("no Evaluate request found to tamper with")
	}
	if _, err := Replay(context.Background(), tr2, nil); err == nil {
		t.Fatal("replay accepted a transcript with tampered feedback")
	}
}

// A header naming a retired algorithm or feedback-policy number fails the
// replay with the same typed error Validate gives a live query — a
// retired number is never reinterpreted or defaulted.
func TestReplayRejectsRetiredNumbers(t *testing.T) {
	parts, _ := makeWorkload(t, 200, 2, 2, gen.Independent, 89)
	fr := flight.New(4)
	cluster, err := Open(ClusterConfig{Partitions: parts, Dims: 2, TranscriptDir: t.TempDir(), FlightRecorder: fr})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	_, tr, _ := recordQuery(t, cluster, fr, Options{Threshold: 0.3, Algorithm: DSUD})

	for _, p := range []uint8{2, 3} { // max-local and the old round-robin slot
		tr.Header.Policy = p
		if _, err := Replay(context.Background(), tr, nil); !errors.Is(err, ErrPolicy) {
			t.Errorf("retired policy %d: %v, want ErrPolicy", p, err)
		}
	}
	tr.Header.Policy = uint8(PolicyAlgorithm)
	tr.Header.Algorithm = uint8(algorithmEnd) // 4 was an algorithm once
	if _, err := Replay(context.Background(), tr, nil); !errors.Is(err, ErrAlgorithm) {
		t.Errorf("retired algorithm %d: %v, want ErrAlgorithm", tr.Header.Algorithm, err)
	}
}

// A transcript of the previous generation is refused at the preamble,
// and dsud-replay turns that into exit status 2 with the re-record
// message rather than replaying renumbered kinds.
func TestReplayBinaryRefusesOldGeneration(t *testing.T) {
	dir := t.TempDir()
	old := filepath.Join(dir, "old.dstr")
	preamble := codec.AppendTranscriptPreamble(nil)
	preamble[4] = codec.TranscriptVersion - 1
	if err := os.WriteFile(old, preamble, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := transcript.ReadFile(old); err == nil || !strings.Contains(err.Error(), "re-record") {
		t.Fatalf("ReadFile on a version-%d transcript: %v", preamble[4], err)
	}

	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go tool to build dsud-replay with")
	}
	bin := filepath.Join(dir, "dsud-replay")
	if out, err := exec.Command(goTool, "build", "-o", bin, "repro/cmd/dsud-replay").CombinedOutput(); err != nil {
		t.Fatalf("building dsud-replay: %v\n%s", err, out)
	}
	var stderr bytes.Buffer
	cmd := exec.Command(bin, "-quiet", old)
	cmd.Stderr = &stderr
	var exit *exec.ExitError
	if err := cmd.Run(); !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("dsud-replay on a version-%d transcript: %v, want exit status 2", preamble[4], err)
	}
	if !strings.Contains(stderr.String(), "re-record") {
		t.Fatalf("stderr %q lacks the re-record message", stderr.String())
	}
}

// Unsampled queries on a recording cluster do not record; with no
// directory there is nothing to record into, even forced; sampling every
// query needs no force; and a transcript that cannot be written leaves
// the query's answer alone and says why in its flight record.
func TestTranscriptSamplingModes(t *testing.T) {
	parts, _ := makeWorkload(t, 200, 2, 2, gen.Independent, 83)
	ctx := context.Background()
	last := func(fr *flight.Recorder) flight.Record {
		t.Helper()
		recs := fr.Snapshot()
		if len(recs) == 0 {
			t.Fatal("no flight record")
		}
		return recs[len(recs)-1]
	}

	// Unforced: sample is 0, nothing recorded.
	dir := t.TempDir()
	fr := flight.New(4)
	cluster, err := Open(ClusterConfig{Partitions: parts, Dims: 2, TranscriptDir: dir, FlightRecorder: fr})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	if _, err := Run(ctx, cluster, Options{Threshold: 0.3}); err != nil {
		t.Fatal(err)
	}
	if r := last(fr); r.Transcript != "" || r.TranscriptErr != "" {
		t.Fatalf("unsampled query recorded a transcript: %+v", r)
	}
	if files, _ := os.ReadDir(dir); len(files) != 0 {
		t.Fatalf("unsampled query wrote %d files", len(files))
	}

	// No directory: forcing records nothing, and sampling is a config error.
	bare, err := Open(ClusterConfig{Partitions: parts, Dims: 2, FlightRecorder: fr})
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Close()
	if _, err := Run(ctx, bare, Options{Threshold: 0.3, Record: true}); err != nil {
		t.Fatal(err)
	}
	if r := last(fr); r.Transcript != "" || r.TranscriptErr != "" {
		t.Fatalf("directory-less cluster recorded a transcript: %+v", r)
	}
	if _, err := Open(ClusterConfig{Partitions: parts, Dims: 2, TranscriptSample: 1}); !errors.Is(err, ErrConfig) {
		t.Fatalf("TranscriptSample without TranscriptDir: %v, want ErrConfig", err)
	}

	// Sample = 1: every query records, no force needed.
	dir2 := t.TempDir()
	c2, err := Open(ClusterConfig{Partitions: parts, Dims: 2, TranscriptDir: dir2, TranscriptSample: 1, FlightRecorder: fr})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if _, err := Run(ctx, c2, Options{Threshold: 0.3}); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir2, "query-*.dstr"))
	if err != nil || len(files) != 1 {
		t.Fatalf("sample=1 wrote %d files (%v)", len(files), err)
	}
	if r := last(fr); r.Transcript != files[0] {
		t.Fatalf("flight record names %q, the file is %q", r.Transcript, files[0])
	}
	if fi, err := os.Stat(files[0]); err != nil || fi.Size() == 0 {
		t.Fatalf("transcript file empty or unreadable: %v", err)
	}

	// An unwritable directory: the query answers, its record says why.
	blocker := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(blocker, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	c3, err := Open(ClusterConfig{Partitions: parts, Dims: 2, TranscriptDir: filepath.Join(blocker, "sub"), FlightRecorder: fr})
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	rep, err := Run(ctx, c3, Options{Threshold: 0.3, Record: true})
	if err != nil || len(rep.Skyline) == 0 {
		t.Fatalf("a failed transcript write failed the query: %v", err)
	}
	if r := last(fr); r.Transcript != "" || r.TranscriptErr == "" || r.Outcome != flight.OutcomeOK {
		t.Fatalf("unwritable transcript directory: %+v", r)
	}
}
