// Package transcript is the protocol black-box recorder: it captures a
// query's complete coordinator↔site exchange — every request and
// response with direction, site, phase, ordinal, byte size, and
// monotonic timestamp — into the versioned, CRC-checked transcript
// format (internal/codec), writes it to a .dstr file the query's flight
// record names, and can replay or diff recorded exchanges offline
// (cmd/dsud-replay drives both).
//
// Recording hooks in at the coordinator's one call path: a recorded
// query's view hands every successful RPC to its Recorder, and an
// unrecorded query's Recorder is nil, so the unrecorded path never
// touches this package and stays zero-alloc.
package transcript

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/codec"
	"repro/internal/msg"
	"repro/internal/transport"
)

// Phase values stamped on recorded messages. They mirror core.Phase's
// numeric values (pinned by a test in internal/core); PhaseControl
// marks traffic outside the four protocol phases (session teardown,
// updates, health probes).
const (
	PhaseToServer       = 0
	PhaseFeedbackSelect = 1
	PhaseServerDelivery = 2
	PhaseLocalPruning   = 3
	PhaseControl        = 255
)

// PhaseOf maps a request kind to the protocol phase its exchange
// belongs to, in the paper's vocabulary.
func PhaseOf(k msg.Kind) uint8 {
	switch k {
	case msg.KindInit, msg.KindNext, msg.KindShipAll:
		return PhaseToServer
	case msg.KindEvaluate:
		return PhaseServerDelivery
	default:
		return PhaseControl
	}
}

// AlgorithmName renders a recorded algorithm byte for human output,
// mirroring core.Algorithm.String (pinned by a test in internal/core —
// this package cannot import core).
func AlgorithmName(a uint8) string {
	switch a {
	case 1:
		return "baseline"
	case 2:
		return "dsud"
	case 3:
		return "e-dsud"
	default:
		return fmt.Sprintf("Algorithm(%d)", a)
	}
}

// PhaseName renders a recorded phase byte for human output.
func PhaseName(p uint8) string {
	switch p {
	case PhaseToServer:
		return "to-server"
	case PhaseFeedbackSelect:
		return "feedback-select"
	case PhaseServerDelivery:
		return "server-delivery"
	case PhaseLocalPruning:
		return "local-pruning"
	case PhaseControl:
		return "control"
	default:
		return fmt.Sprintf("phase(%d)", p)
	}
}

// Recorder captures one query's exchange: the coordinator calls
// RecordCall once per successful RPC, and each lands in the transcript
// as a request/response message pair sharing a per-site ordinal.
// Methods are safe for concurrent use (broadcasts fan out in parallel);
// a nil *Recorder is inert.
type Recorder struct {
	start time.Time

	mu       sync.Mutex
	buf      []byte // preamble + header + message frames, encoded
	payload  []byte // reused protocol-message encode buffer
	scratch  []byte // reused message-body encode buffer
	ordinals []int64
}

// NewRecorder starts a transcript for the query described by h. start
// anchors the monotonic message timestamps.
func NewRecorder(h *codec.TranscriptHeader, start time.Time) *Recorder {
	buf := codec.AppendTranscriptPreamble(nil)
	buf = codec.AppendTranscriptFrame(buf, codec.TranscriptHeaderFrame, codec.AppendTranscriptHeader(nil, h))
	return &Recorder{
		start:    start,
		buf:      buf,
		ordinals: make([]int64, h.Sites),
	}
}

// RecordCall captures one completed RPC as a request/response message
// pair whose payloads are the transport's own message encoding. Nil-safe.
func (r *Recorder) RecordCall(site int, req *msg.Request, resp *msg.Response, wireBytes int64) {
	if r == nil {
		return
	}
	tnano := time.Since(r.start).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	for site >= len(r.ordinals) {
		r.ordinals = append(r.ordinals, 0)
	}
	m := codec.TranscriptMessage{
		Dir:     codec.TranscriptDirRequest,
		Phase:   PhaseOf(req.Kind),
		Kind:    int64(req.Kind),
		Site:    int64(site),
		Ordinal: r.ordinals[site],
		TNano:   tnano,
	}
	r.ordinals[site]++
	r.payload = transport.AppendRequest(r.payload[:0], req)
	m.Payload = r.payload
	r.scratch = codec.AppendTranscriptMessage(r.scratch[:0], &m)
	r.buf = codec.AppendTranscriptFrame(r.buf, codec.TranscriptMessageFrame, r.scratch)
	m.Dir = codec.TranscriptDirResponse
	m.WireBytes = wireBytes
	r.payload = transport.AppendResponse(r.payload[:0], resp, nil)
	m.Payload = r.payload
	r.scratch = codec.AppendTranscriptMessage(r.scratch[:0], &m)
	r.buf = codec.AppendTranscriptFrame(r.buf, codec.TranscriptMessageFrame, r.scratch)
}

// Bytes seals the transcript — appending the summary frame when sum is
// non-nil (a query that failed mid-flight has no summary) — and returns
// the encoded file image.
func (r *Recorder) Bytes(sum *codec.TranscriptSummary) []byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	if sum != nil {
		r.scratch = codec.AppendTranscriptSummary(r.scratch[:0], sum)
		r.buf = codec.AppendTranscriptFrame(r.buf, codec.TranscriptSummaryFrame, r.scratch)
	}
	return r.buf
}

// Sink writes recorded queries' transcripts into a directory of .dstr
// files; the query's flight record names the file. A nil *Sink records
// nothing.
type Sink struct {
	dir string
}

// NewSink returns a sink writing transcript files to dir.
func NewSink(dir string) *Sink { return &Sink{dir: dir} }

// Finish seals rec — with the summary frame when sum is non-nil (a
// failed query has none) — and writes the transcript file, returning its
// path. Nil-safe on both receiver and recorder.
func (s *Sink) Finish(rec *Recorder, h *codec.TranscriptHeader, sum *codec.TranscriptSummary) (string, error) {
	if s == nil || rec == nil {
		return "", nil
	}
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(s.dir, fmt.Sprintf("query-%016x-%d.dstr", h.QueryID, h.Session))
	if err := os.WriteFile(path, rec.Bytes(sum), 0o644); err != nil {
		return "", err
	}
	return path, nil
}
