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
	for _, k := range []transport.Kind{transport.KindInit, transport.KindNext, transport.KindShipAll} {
		if transcript.PhaseOf(k) != transcript.PhaseToServer {
			t.Errorf("PhaseOf(%v) = %d, want to-server", k, transcript.PhaseOf(k))
		}
	}
	if transcript.PhaseOf(transport.KindEvaluate) != transcript.PhaseServerDelivery {
		t.Error("PhaseOf(Evaluate) must map to server-delivery")
	}
}

// recordQuery runs one forced-record query and returns the transcript it
// produced.
func recordQuery(t *testing.T, cluster *Cluster, log *transcript.Log, opts Options) (*Report, *transcript.Transcript, string) {
	t.Helper()
	before := log.Total()
	opts.Record = true
	rep, err := Run(context.Background(), cluster, opts)
	if err != nil {
		t.Fatal(err)
	}
	entries := log.Snapshot()
	if uint64(len(entries)) == before || len(entries) == 0 {
		t.Fatal("forced recording left no transcript log entry")
	}
	e := entries[len(entries)-1]
	if e.Error != "" {
		t.Fatalf("recording failed: %s", e.Error)
	}
	if e.Path == "" {
		t.Fatal("recording wrote no file despite a sink directory")
	}
	tr, err := transcript.ReadFile(e.Path)
	if err != nil {
		t.Fatalf("reading %s: %v", e.Path, err)
	}
	return rep, tr, e.Path
}

// A query recorded on the in-process transport must replay offline to
// the identical skyline, delivery ordinals and tallies, for every
// algorithm in the family.
func TestRecordReplayLocal(t *testing.T) {
	parts, _ := makeWorkload(t, 500, 3, 4, gen.Anticorrelated, 71)
	log := transcript.NewLog(8)
	cluster, err := Open(ClusterConfig{
		Partitions:    parts,
		Dims:          3,
		TranscriptDir: t.TempDir(),
		TranscriptLog: log,
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
		rep, tr, _ := recordQuery(t, cluster, log, opts)
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

// Transcripts recorded over TCP by the build whose loop waited once per
// refill (PR 22, dsud-query -record against four dsud-site daemons:
// e-DSUD and DSUD at q = 0.3, e-DSUD top-3 at q = 0.1) replay exactly:
// each site is still sent the same kinds in the same order, so neither
// the wire nor the transcript format needed a new generation.
func TestParentTranscriptsReplayExactly(t *testing.T) {
	for name, want := range map[string]struct{ results, refills int64 }{
		"pr22-edsud.dstr": {15, 24}, "pr22-dsud.dstr": {15, 22}, "pr22-topk.dstr": {3, 31},
	} {
		tr, err := transcript.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		if tr.Summary == nil || tr.Summary.Results != want.results || tr.Summary.Refills != want.refills {
			t.Fatalf("%s: recorded summary %+v, want %d results and %d refills", name, tr.Summary, want.results, want.refills)
		}
		res, err := Replay(context.Background(), tr, nil)
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
	log := transcript.NewLog(4)
	cluster, err := Open(ClusterConfig{
		Addrs:         addrs,
		Dims:          3,
		TranscriptDir: t.TempDir(),
		TranscriptLog: log,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	var live []Result
	rep, tr, _ := recordQuery(t, cluster, log, Options{Threshold: 0.3, Algorithm: EDSUD,
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
	log := transcript.NewLog(4)
	dir := t.TempDir()
	cluster, err := Open(ClusterConfig{Partitions: parts, Dims: 3, TranscriptDir: dir, TranscriptLog: log})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	_, tr, path := recordQuery(t, cluster, log, Options{Threshold: 0.3, Algorithm: EDSUD})

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
		if m.Dir != codec.TranscriptDirRequest || m.Kind != int64(transport.KindEvaluate) {
			continue
		}
		var req transport.Request
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
	log := transcript.NewLog(4)
	cluster, err := Open(ClusterConfig{Partitions: parts, Dims: 2, TranscriptDir: t.TempDir(), TranscriptLog: log})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	_, tr, _ := recordQuery(t, cluster, log, Options{Threshold: 0.3, Algorithm: DSUD})

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

// Forced recording must work without a directory (summary-only sinks
// keep /transcriptz alive with no files), and unsampled queries on a
// recording cluster must not record.
func TestTranscriptSamplingModes(t *testing.T) {
	parts, _ := makeWorkload(t, 200, 2, 2, gen.Independent, 83)
	log := transcript.NewLog(4)
	cluster, err := Open(ClusterConfig{Partitions: parts, Dims: 2, TranscriptLog: log})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	// Unforced: sample is 0, nothing recorded.
	if _, err := Run(context.Background(), cluster, Options{Threshold: 0.3}); err != nil {
		t.Fatal(err)
	}
	if log.Total() != 0 {
		t.Fatal("unsampled query recorded a transcript")
	}

	// Forced without a directory: log entry, no file.
	if _, err := Run(context.Background(), cluster, Options{Threshold: 0.3, Record: true}); err != nil {
		t.Fatal(err)
	}
	entries := log.Snapshot()
	if len(entries) != 1 {
		t.Fatalf("forced query produced %d log entries", len(entries))
	}
	if entries[0].Path != "" {
		t.Fatalf("directory-less sink wrote a file: %s", entries[0].Path)
	}
	if entries[0].Error != "" {
		t.Fatalf("summary-only recording errored: %s", entries[0].Error)
	}

	// Sample = 1: every query records, no force needed.
	dir := t.TempDir()
	log2 := transcript.NewLog(4)
	c2, err := Open(ClusterConfig{Partitions: parts, Dims: 2, TranscriptDir: dir, TranscriptSample: 1, TranscriptLog: log2})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if _, err := Run(context.Background(), c2, Options{Threshold: 0.3}); err != nil {
		t.Fatal(err)
	}
	if log2.Total() != 1 {
		t.Fatalf("sample=1 recorded %d transcripts", log2.Total())
	}
	files, err := filepath.Glob(filepath.Join(dir, "query-*.dstr"))
	if err != nil || len(files) != 1 {
		t.Fatalf("sample=1 wrote %d files (%v)", len(files), err)
	}
	if fi, err := os.Stat(files[0]); err != nil || fi.Size() == 0 {
		t.Fatalf("transcript file empty or unreadable: %v", err)
	}
}
