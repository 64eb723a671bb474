package codec

// Transcript wire format: the black-box recorder's on-disk encoding of
// one query's complete coordinator↔site exchange. A transcript file is
// a 5-byte preamble (magic "DSTR" + version) followed by a stream of
// length-prefixed, CRC-checked frames, in the package's house style:
//
//	length  u32 LE   — byte count of everything after this field
//	type    u8       — TranscriptHeader | TranscriptMessage | TranscriptSummary
//	payload bytes    — hand-rolled body (varints, CRC'd)
//	crc32   u32 LE   — IEEE CRC of type..payload
//
// Unknown frame types are padding — a reader skips them — so future
// recorders can add annotation frames without breaking old replayers,
// the same forward-compat contract the wire frames carry. Message
// payloads ride as opaque blobs in the transport's own message encoding
// (transport.AppendRequest / AppendResponse), the same bytes a wire
// frame carries.
//
// The format is deliberately self-contained: TranscriptHeader carries
// everything needed to re-run the query (algorithm, threshold, dims,
// policy, knobs), TranscriptMessage carries one direction-stamped
// protocol message, and TranscriptSummary pins the recorded outcome
// (skyline, tallies, AUC) that a replay must reproduce.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// TranscriptMagic opens a transcript file; TranscriptVersion follows it
// and is bumped on incompatible layout changes.
var TranscriptMagic = [4]byte{'D', 'S', 'T', 'R'}

// TranscriptVersion is the transcript format generation. Version 1
// carried gob payload blobs; version 2 the flat message encoding;
// version 3 dropped a header field with the algorithm that owned it and
// renumbered kinds, mask bits and policies densely.
const TranscriptVersion = 3

// TranscriptFrameType discriminates transcript frames.
type TranscriptFrameType uint8

// Transcript frame types. Readers must skip unknown types.
const (
	// TranscriptHeaderFrame carries the query's identity and options;
	// exactly one opens every transcript.
	TranscriptHeaderFrame TranscriptFrameType = 1
	// TranscriptMessageFrame carries one recorded protocol message.
	TranscriptMessageFrame TranscriptFrameType = 2
	// TranscriptSummaryFrame pins the query's outcome; at most one
	// closes a transcript (absent when the query failed mid-flight).
	TranscriptSummaryFrame TranscriptFrameType = 3
)

func (t TranscriptFrameType) String() string {
	switch t {
	case TranscriptHeaderFrame:
		return "header"
	case TranscriptMessageFrame:
		return "message"
	case TranscriptSummaryFrame:
		return "summary"
	default:
		return fmt.Sprintf("TranscriptFrameType(%d)", uint8(t))
	}
}

// Message directions.
const (
	// TranscriptDirRequest is coordinator→site.
	TranscriptDirRequest = 0
	// TranscriptDirResponse is site→coordinator.
	TranscriptDirResponse = 1
)

// Decode-side sanity bounds: a hostile (but CRC-valid) frame must not
// force large allocations.
const (
	maxTranscriptPayload = 1 << 30
	maxTranscriptDims    = 1 << 10
	maxTranscriptSkyline = 1 << 22
	maxTranscriptSites   = 1 << 16
)

// TranscriptHeader identifies the recorded query and carries every
// option needed to re-run it. IDs are raw uint64 so this package stays
// free of the domain types (uncertain.TupleID etc.).
type TranscriptHeader struct {
	QueryID       uint64
	Session       uint64
	Algorithm     uint8
	Policy        uint8
	Threshold     float64
	StartUnixNano int64
	Sites         int64
	// Dimensionality is the data dimensionality the cluster was opened
	// with; Dims (below) is the query's subspace (empty = all).
	Dimensionality int64
	TopK           int64
	MaxResults     int64
	Flags          uint8 // bit0 DisableExpunge, bit1 DisableSitePruning, bit2 NoPrune subspace semantics unused
	Dims           []int64
}

// Header flag bits.
const (
	TranscriptFlagDisableExpunge     = 1 << 0
	TranscriptFlagDisableSitePruning = 1 << 1
)

// TranscriptMessage is one recorded protocol message. Request and
// response of the same RPC share an Ordinal (per-site ordinals are
// assigned in call order; global interleaving across sites is
// scheduler-dependent and deliberately not recorded as meaningful).
type TranscriptMessage struct {
	Dir       uint8 // TranscriptDirRequest | TranscriptDirResponse
	Phase     uint8 // core.Phase the message belongs to
	Kind      int64 // transport.Kind
	Site      int64
	Ordinal   int64 // per-site RPC ordinal, starting at 0
	WireBytes int64 // framed bytes charged on the live wire (both directions, stamped on the response)
	TNano     int64 // monotonic ns since query start
	Payload   []byte
}

// TranscriptSummary pins the outcome a replay must reproduce. Skyline
// members are (ID, prob) pairs in delivery order; PerSiteShipped /
// PerSitePruned mirror Report.PerSite.
type TranscriptSummary struct {
	Results        int64
	Iterations     int64
	Broadcasts     int64
	Expunged       int64
	Refills        int64
	PrunedLocal    int64
	TuplesUp       int64
	TuplesDown     int64
	Messages       int64
	Bytes          int64
	ElapsedNS      int64
	AUCBandwidth   float64
	SkylineIDs     []uint64
	SkylineProbs   []float64
	PerSiteShipped []int64
	PerSitePruned  []int64
}

// AppendTranscriptPreamble appends the 5-byte file preamble.
func AppendTranscriptPreamble(dst []byte) []byte {
	dst = append(dst, TranscriptMagic[:]...)
	return append(dst, TranscriptVersion)
}

// CheckTranscriptPreamble validates the 5-byte file preamble and
// returns the number of bytes it occupies.
func CheckTranscriptPreamble(data []byte) (int, error) {
	if len(data) < 5 {
		return 0, fmt.Errorf("%w: transcript preamble truncated", ErrCorrupt)
	}
	if [4]byte(data[:4]) != TranscriptMagic {
		return 0, fmt.Errorf("%w: transcript magic", ErrCorrupt)
	}
	switch v := data[4]; {
	case v == TranscriptVersion:
	case v < TranscriptVersion:
		return 0, fmt.Errorf("transcript version %d is no longer readable (this build speaks %d), re-record", v, TranscriptVersion)
	default:
		return 0, fmt.Errorf("codec: unsupported transcript version %d (this build speaks %d)", v, TranscriptVersion)
	}
	return 5, nil
}

// AppendTranscriptFrame appends one framed payload of the given type.
func AppendTranscriptFrame(dst []byte, t TranscriptFrameType, payload []byte) []byte {
	body := 1 + len(payload) + 4
	dst = binary.LittleEndian.AppendUint32(dst, uint32(body))
	start := len(dst)
	dst = append(dst, byte(t))
	dst = append(dst, payload...)
	crc := crc32.ChecksumIEEE(dst[start:])
	return binary.LittleEndian.AppendUint32(dst, crc)
}

// TranscriptFrame is one decoded frame. Payload aliases the read buffer.
type TranscriptFrame struct {
	Type    TranscriptFrameType
	Payload []byte
}

// ReadTranscriptFrame reads one complete frame from r, returning the
// frame and the wire bytes consumed. A clean EOF before the first
// length byte returns io.EOF unwrapped, so end-of-file is
// distinguishable from truncation mid-frame. Callers must skip frames
// whose Type they do not recognize.
func ReadTranscriptFrame(r io.Reader) (TranscriptFrame, int, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		if err == io.EOF {
			return TranscriptFrame{}, 0, io.EOF
		}
		return TranscriptFrame{}, 0, fmt.Errorf("%w: transcript length prefix: %v", ErrCorrupt, err)
	}
	body := binary.LittleEndian.Uint32(lenBuf[:])
	if body < 1+4 || body > maxTranscriptPayload+1+4 {
		return TranscriptFrame{}, 0, fmt.Errorf("%w: implausible transcript frame length %d", ErrCorrupt, body)
	}
	buf, err := readBody(r, nil, int(body))
	if err != nil {
		return TranscriptFrame{}, 0, fmt.Errorf("%w: truncated transcript frame (%d byte body): %v", ErrCorrupt, body, err)
	}
	payloadEnd := len(buf) - 4
	if got, want := binary.LittleEndian.Uint32(buf[payloadEnd:]), crc32.ChecksumIEEE(buf[:payloadEnd]); got != want {
		return TranscriptFrame{}, 0, fmt.Errorf("%w: transcript frame checksum mismatch", ErrCorrupt)
	}
	return TranscriptFrame{
		Type:    TranscriptFrameType(buf[0]),
		Payload: buf[1:payloadEnd],
	}, 4 + int(body), nil
}

// AppendTranscriptHeader appends h's body encoding (not framed — wrap
// with AppendTranscriptFrame).
func AppendTranscriptHeader(dst []byte, h *TranscriptHeader) []byte {
	dst = binary.AppendUvarint(dst, h.QueryID)
	dst = binary.AppendUvarint(dst, h.Session)
	dst = append(dst, h.Algorithm, h.Policy, h.Flags)
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(h.Threshold))
	dst = binary.AppendVarint(dst, h.StartUnixNano)
	dst = binary.AppendVarint(dst, h.Sites)
	dst = binary.AppendVarint(dst, h.Dimensionality)
	dst = binary.AppendVarint(dst, h.TopK)
	dst = binary.AppendVarint(dst, h.MaxResults)
	dst = binary.AppendUvarint(dst, uint64(len(h.Dims)))
	for _, d := range h.Dims {
		dst = binary.AppendVarint(dst, d)
	}
	return dst
}

// DecodeTranscriptHeader parses a TranscriptHeaderFrame payload. Never
// panics, whatever the input.
func DecodeTranscriptHeader(data []byte) (TranscriptHeader, error) {
	r := NewReader(data, ErrCorrupt, "transcript header")
	h := TranscriptHeader{
		QueryID:   r.Uvarint("query id"),
		Session:   r.Uvarint("session"),
		Algorithm: r.Byte("algorithm"),
		Policy:    r.Byte("policy"),
		Flags:     r.Byte("flags"),
		Threshold: r.Float("threshold"),
	}
	for _, f := range []*int64{
		&h.StartUnixNano, &h.Sites, &h.Dimensionality, &h.TopK, &h.MaxResults,
	} {
		*f = r.Varint("option")
	}
	h.Dims = make([]int64, r.Count("dim count", 1, maxTranscriptDims))
	for i := range h.Dims {
		h.Dims[i] = r.Varint("dim")
	}
	return h, r.Finish()
}

// AppendTranscriptMessage appends m's body encoding (not framed).
func AppendTranscriptMessage(dst []byte, m *TranscriptMessage) []byte {
	dst = append(dst, m.Dir, m.Phase)
	dst = binary.AppendVarint(dst, m.Kind)
	dst = binary.AppendVarint(dst, m.Site)
	dst = binary.AppendVarint(dst, m.Ordinal)
	dst = binary.AppendVarint(dst, m.WireBytes)
	dst = binary.AppendVarint(dst, m.TNano)
	dst = binary.AppendUvarint(dst, uint64(len(m.Payload)))
	return append(dst, m.Payload...)
}

// DecodeTranscriptMessage parses a TranscriptMessageFrame payload. The
// returned Payload aliases data. Never panics, whatever the input.
func DecodeTranscriptMessage(data []byte) (TranscriptMessage, error) {
	r := NewReader(data, ErrCorrupt, "transcript message")
	m := TranscriptMessage{
		Dir:       r.Byte("direction"),
		Phase:     r.Byte("phase"),
		Kind:      r.Varint("kind"),
		Site:      r.Varint("site"),
		Ordinal:   r.Varint("ordinal"),
		WireBytes: r.Varint("wire bytes"),
		TNano:     r.Varint("tnano"),
	}
	m.Payload = r.Bytes("payload", r.Count("payload length", 1, maxTranscriptPayload))
	return m, r.Finish()
}

// AppendTranscriptSummary appends s's body encoding (not framed).
func AppendTranscriptSummary(dst []byte, s *TranscriptSummary) []byte {
	for _, v := range []int64{
		s.Results, s.Iterations, s.Broadcasts, s.Expunged, s.Refills,
		s.PrunedLocal, s.TuplesUp, s.TuplesDown, s.Messages, s.Bytes,
		s.ElapsedNS,
	} {
		dst = binary.AppendVarint(dst, v)
	}
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(s.AUCBandwidth))
	dst = binary.AppendUvarint(dst, uint64(len(s.SkylineIDs)))
	for i, id := range s.SkylineIDs {
		dst = binary.AppendUvarint(dst, id)
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(s.SkylineProbs[i]))
	}
	dst = binary.AppendUvarint(dst, uint64(len(s.PerSiteShipped)))
	for i := range s.PerSiteShipped {
		dst = binary.AppendVarint(dst, s.PerSiteShipped[i])
		dst = binary.AppendVarint(dst, s.PerSitePruned[i])
	}
	return dst
}

// DecodeTranscriptSummary parses a TranscriptSummaryFrame payload.
// Never panics, whatever the input.
func DecodeTranscriptSummary(data []byte) (TranscriptSummary, error) {
	var s TranscriptSummary
	r := NewReader(data, ErrCorrupt, "transcript summary")
	for _, f := range []*int64{
		&s.Results, &s.Iterations, &s.Broadcasts, &s.Expunged, &s.Refills,
		&s.PrunedLocal, &s.TuplesUp, &s.TuplesDown, &s.Messages, &s.Bytes,
		&s.ElapsedNS,
	} {
		*f = r.Varint("tally")
	}
	s.AUCBandwidth = r.Float("auc")
	nsky := r.Count("skyline count", 1+8, maxTranscriptSkyline)
	s.SkylineIDs = make([]uint64, nsky)
	s.SkylineProbs = make([]float64, nsky)
	for i := range s.SkylineIDs {
		s.SkylineIDs[i] = r.Uvarint("skyline id")
		s.SkylineProbs[i] = r.Float("skyline prob")
	}
	nsites := r.Count("site count", 2, maxTranscriptSites)
	s.PerSiteShipped = make([]int64, nsites)
	s.PerSitePruned = make([]int64, nsites)
	for i := range s.PerSiteShipped {
		s.PerSiteShipped[i] = r.Varint("site shipped")
		s.PerSitePruned[i] = r.Varint("site pruned")
	}
	return s, r.Finish()
}
