package codec

// Wire frames. Every message between a coordinator and a site rides in a
// length-prefixed frame carrying a request ID, so many RPCs pipeline over
// a single TCP connection and responses may return out of order. The
// layout follows this package's conventions (version byte up front,
// CRC-32 trailer):
//
//	length  u32 LE   — byte count of everything after this field
//	version u8       — FrameVersion
//	type    u8       — FrameRequest | FrameResponse | FrameCancel
//	id      u64 LE   — request identifier, echoed on the response
//	payload bytes    — opaque body (for requests and responses, the
//	                   transport's message encoding, internal/transport/wire.go)
//	crc32   u32 LE   — IEEE CRC of version..payload
//
// A connection opens with a 5-byte hello (MuxHandshake) that the server
// echoes; a peer that answers anything else speaks another generation
// and is refused.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
)

// FrameVersion is the wire protocol generation carried in every frame
// and in the handshake. Generation 3 replaced the gob message payloads
// of generation 2 with the flat encoding; generation 4 renumbered the
// request kinds and field-mask bits after two kinds were retired;
// generation 5 batches maintenance evaluations (a sessionless Evaluate
// carries candidates, its reply their factors), which a generation-4 site
// would answer as one empty feedback tuple; generation 6 retired the
// server-push frame types, which a generation-5 coordinator would send and
// wait on forever; generation 7 retired the trace context (request mask
// bit 5) and the span blob (response bit 6) for a payload-less Timed bit
// and a fixed-width ServiceNS, and a generation-6 coordinator would have
// every traced request refused as an unknown bit; generation 8 lets an
// evaluate carry an expunged candidate's refill (request mask bit 13),
// which a generation-7 site would refuse as an unknown bit; generation 9
// lets a resumed query's Init carry the known answer (the Tuples and
// RemoveIDs fields), which a generation-8 site would ignore and so ship
// and re-derive every known answer. The frame layout is unchanged.
const FrameVersion = 9

// MuxMagic opens the handshake.
var MuxMagic = [4]byte{0xD5, 'S', 'Q', '2'}

// MuxHandshake is the full 5-byte hello a client sends at dial time; the
// server echoes it back verbatim as the accept.
func MuxHandshake() [5]byte {
	return [5]byte{MuxMagic[0], MuxMagic[1], MuxMagic[2], MuxMagic[3], FrameVersion}
}

// FrameType discriminates frames.
type FrameType uint8

// Frame types.
const (
	// FrameRequest carries one encoded request; id is caller-assigned
	// and unique per in-flight request.
	FrameRequest FrameType = 1
	// FrameResponse carries one encoded response; id echoes the request
	// it answers.
	FrameResponse FrameType = 2
	// FrameCancel tells the peer the identified request was abandoned;
	// it has no payload and receives no reply. Best-effort: the
	// response may already be in flight, in which case it is dropped at
	// the receiver.
	FrameCancel FrameType = 3
)

func (t FrameType) String() string {
	switch t {
	case FrameRequest:
		return "request"
	case FrameResponse:
		return "response"
	case FrameCancel:
		return "cancel"
	default:
		return fmt.Sprintf("FrameType(%d)", uint8(t))
	}
}

// frameOverhead is the framed byte cost beyond the payload: the length
// prefix plus version, type, id and CRC.
const frameOverhead = 4 + frameHeaderLen + 4

// frameHeaderLen is version + type + id.
const frameHeaderLen = 1 + 1 + 8

// MaxFramePayload bounds a frame's payload; a length prefix beyond it is
// corrupt. Partitions shipped whole (KindShipAll at paper scale) stay
// well under this.
const MaxFramePayload = 1 << 30

// ErrFrame reports a structurally invalid or corrupt frame.
var ErrFrame = errors.New("codec: corrupt frame")

// Frame is one decoded frame. Payload aliases the decode buffer.
type Frame struct {
	Type    FrameType
	ID      uint64
	Payload []byte
}

// AppendFrame appends the framed encoding of (t, id, payload) to dst
// and returns the extended slice.
func AppendFrame(dst []byte, t FrameType, id uint64, payload []byte) []byte {
	body := frameHeaderLen + len(payload) + 4
	dst = binary.LittleEndian.AppendUint32(dst, uint32(body))
	start := len(dst)
	dst = append(dst, FrameVersion, byte(t))
	dst = binary.LittleEndian.AppendUint64(dst, id)
	dst = append(dst, payload...)
	crc := crc32.ChecksumIEEE(dst[start:len(dst)])
	return binary.LittleEndian.AppendUint32(dst, crc)
}

// FrameBytes returns the wire size of a frame with the given payload
// length — what a meter should charge for it.
func FrameBytes(payloadLen int) int { return payloadLen + frameOverhead }

// DecodeFrameBody parses the post-length portion of a frame (version
// through CRC). It validates the version and checksum and never
// panics, whatever the input.
func DecodeFrameBody(body []byte) (Frame, error) {
	if len(body) < frameHeaderLen+4 {
		return Frame{}, fmt.Errorf("%w: body %d bytes, need >= %d", ErrFrame, len(body), frameHeaderLen+4)
	}
	payloadEnd := len(body) - 4
	if got, want := binary.LittleEndian.Uint32(body[payloadEnd:]), crc32.ChecksumIEEE(body[:payloadEnd]); got != want {
		return Frame{}, fmt.Errorf("%w: checksum mismatch", ErrFrame)
	}
	if body[0] != FrameVersion {
		return Frame{}, fmt.Errorf("%w: version %d (this build speaks %d)", ErrFrame, body[0], FrameVersion)
	}
	return Frame{
		Type:    FrameType(body[1]),
		ID:      binary.LittleEndian.Uint64(body[2:10]),
		Payload: body[frameHeaderLen:payloadEnd],
	}, nil
}

// frameChunk bounds how far readBody allocates ahead of the bytes that
// have arrived: past it the buffer at most doubles per read, so a hostile
// length prefix costs its sender real bytes, not four.
const frameChunk = 64 << 10

// readBody reads a claimed n-byte body from r, reusing buf's capacity.
func readBody(r io.Reader, buf []byte, n int) ([]byte, error) {
	buf = buf[:0]
	for len(buf) < n {
		step := min(n-len(buf), max(frameChunk, len(buf)))
		buf = slices.Grow(buf, step)[:len(buf)+step]
		if _, err := io.ReadFull(r, buf[len(buf)-step:]); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// maxRetainedFrame is the largest buffer a FrameReader keeps between
// frames; one shipped partition must not pin its size for the life of
// the connection.
const maxRetainedFrame = 1 << 20

// FrameReader reads frames from one stream into a buffer it reuses, so a
// steady stream of small frames allocates nothing.
type FrameReader struct {
	r   io.Reader
	buf []byte
}

// NewFrameReader returns a FrameReader over r.
func NewFrameReader(r io.Reader) *FrameReader { return &FrameReader{r: r} }

// ReadFrame reads one complete frame, returning it and the total wire
// bytes consumed. The frame's Payload is valid until the next call. A
// clean EOF before the first length byte returns io.EOF unwrapped, so
// connection teardown is distinguishable from corruption mid-frame.
func (fr *FrameReader) ReadFrame() (Frame, int, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(fr.r, lenBuf[:]); err != nil {
		if err == io.EOF {
			return Frame{}, 0, io.EOF
		}
		return Frame{}, 0, fmt.Errorf("%w: length prefix: %v", ErrFrame, err)
	}
	body := int(binary.LittleEndian.Uint32(lenBuf[:]))
	if body < frameHeaderLen+4 || body > MaxFramePayload+frameHeaderLen+4 {
		return Frame{}, 0, fmt.Errorf("%w: implausible frame length %d", ErrFrame, body)
	}
	buf, err := readBody(fr.r, fr.buf, body)
	if err != nil {
		return Frame{}, 0, fmt.Errorf("%w: truncated frame (%d byte body): %v", ErrFrame, body, err)
	}
	if cap(buf) <= maxRetainedFrame {
		fr.buf = buf
	} else {
		fr.buf = nil
	}
	f, err := DecodeFrameBody(buf)
	if err != nil {
		return Frame{}, 0, err
	}
	return f, 4 + body, nil
}
