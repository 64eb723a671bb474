// Package transcript is the protocol black-box recorder: it captures a
// query's complete coordinator↔site exchange — every request and
// response with direction, site, phase, ordinal, byte size, and
// monotonic timestamp — into the versioned, CRC-checked transcript
// format (internal/codec), retains summaries of recent recordings in a
// ring served at /transcriptz, and can replay or diff recorded
// exchanges offline (cmd/dsud-replay drives both).
//
// Recording hooks in at the coordinator's one call path: a recorded
// query's view hands every successful RPC to its Recorder, and an
// unrecorded query's Recorder is nil, so the unsampled path never touches
// this package and stays zero-alloc (the sampling decision itself is
// allocation-free, pinned by TestShouldRecordZeroAlloc).
package transcript

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/codec"
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
func PhaseOf(k transport.Kind) uint8 {
	switch k {
	case transport.KindInit, transport.KindNext, transport.KindShipAll:
		return PhaseToServer
	case transport.KindEvaluate:
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
	messages int64
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
func (r *Recorder) RecordCall(site int, req *transport.Request, resp *transport.Response, wireBytes int64) {
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
	r.messages += 2
}

// Messages returns how many messages have been captured so far.
func (r *Recorder) Messages() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.messages
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

// Sink decides which queries get recorded and owns where transcripts
// land: a directory of .dstr files plus the in-memory ring served at
// /transcriptz. A nil *Sink records nothing.
type Sink struct {
	dir    string
	sample float64
	log    *Log
	rng    atomic.Uint64
	// recorded / dropped count sampling decisions, for /vars-style
	// introspection via the log's Dump.
	recorded atomic.Uint64
	failed   atomic.Uint64
}

// NewSink returns a sink writing transcript files to dir (empty: keep
// summaries in the ring only, discard the bytes unless forced to a
// path), sampling the given fraction of queries (0 disables sampling;
// on-demand recording via Arm(true) still works), and summarizing into
// log (nil: no ring).
func NewSink(dir string, sample float64, log *Log) *Sink {
	s := &Sink{dir: dir, sample: sample, log: log}
	s.rng.Store(uint64(time.Now().UnixNano()) | 1)
	return s
}

// Log returns the sink's summary ring (nil-safe).
func (s *Sink) Log() *Log {
	if s == nil {
		return nil
	}
	return s.log
}

// Dir returns the sink's transcript directory (nil-safe).
func (s *Sink) Dir() string {
	if s == nil {
		return ""
	}
	return s.dir
}

// ShouldRecord makes the per-query sampling decision: true when forced
// (dsud-query -record) or when the query falls in the sampled fraction.
// Nil-safe and allocation-free — this is the only cost an unsampled
// query pays (pinned by TestShouldRecordZeroAlloc).
func (s *Sink) ShouldRecord(force bool) bool {
	if s == nil {
		return false
	}
	if force {
		return true
	}
	if s.sample <= 0 {
		return false
	}
	if s.sample >= 1 {
		return true
	}
	// splitmix64 over an atomic counter: cheap, lock-free, good enough
	// for sampling.
	x := s.rng.Add(0x9E3779B97F4A7C15)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return float64(x>>11)/(1<<53) < s.sample
}

// Finish seals rec, writes the transcript file, and records a summary
// in the ring. sum is nil when the query failed; qerr carries that
// failure for the ring entry. Returns the file path ("" when the sink
// has no directory). Nil-safe on both receiver and recorder.
func (s *Sink) Finish(rec *Recorder, h *codec.TranscriptHeader, sum *codec.TranscriptSummary, qerr error) (string, error) {
	if s == nil || rec == nil {
		return "", nil
	}
	data := rec.Bytes(sum)
	entry := Summary{
		QueryID:       h.QueryID,
		Session:       h.Session,
		Algorithm:     h.Algorithm,
		Threshold:     h.Threshold,
		StartUnixNano: h.StartUnixNano,
		Messages:      rec.Messages(),
		Bytes:         int64(len(data)),
	}
	if sum != nil {
		entry.Results = sum.Results
		entry.ElapsedNS = sum.ElapsedNS
	}
	if qerr != nil {
		entry.Error = qerr.Error()
	}
	var path string
	var werr error
	if s.dir != "" {
		if werr = os.MkdirAll(s.dir, 0o755); werr == nil {
			path = filepath.Join(s.dir, fmt.Sprintf("query-%016x-%d.dstr", h.QueryID, h.Session))
			werr = os.WriteFile(path, data, 0o644)
		}
		if werr != nil {
			path = ""
			if entry.Error == "" {
				entry.Error = werr.Error()
			}
		}
	}
	entry.Path = path
	if werr != nil {
		s.failed.Add(1)
	} else {
		s.recorded.Add(1)
	}
	s.log.Record(&entry)
	return path, werr
}
