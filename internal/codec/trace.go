package codec

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"repro/internal/obs"
)

// Span-batch wire format. Sites piggyback their completed spans on every
// sampled RPC response as one opaque []byte field (transport.Response
// .TraceBlob); encoding it here — rather than letting gob reflect over
// the span structs — keeps the hot wire format compact, versioned and
// fuzzable, and gives old peers a clean story: a peer that predates the
// field simply never sets it, and DecodeSpanBatch(nil) is defined as "no
// spans". The layout is:
//
//	magic "DSQT" | version u8
//	trace-context: traceID uvarint | parent uvarint | flags u8 (bit0 = sampled)
//	siteID varint | siteClock varint
//	count uvarint
//	count × ( id uvarint | parent uvarint | nameLen uvarint | name bytes
//	          | site varint | start varint | end varint
//	          | tuples varint | bytes varint )
//	crc32(everything above) u32
//
// Timestamps and the ledger ride as signed varints: span times are
// deltas from SiteClock (small, often negative), so they encode in a few
// bytes instead of nine.
var traceMagic = [4]byte{'D', 'S', 'Q', 'T'}

const traceVersion = 1

// Decode-side sanity bounds: a hostile (but well-formed) header must not
// force large allocations.
const (
	maxBatchSpans = 1 << 16
	maxSpanName   = 256
	minSpanBytes  = 8 // eight varints, one byte each at least
)

// AppendTraceContext appends the trace-context wire fields to dst.
func AppendTraceContext(dst []byte, tc obs.TraceContext) []byte {
	dst = binary.AppendUvarint(dst, tc.TraceID)
	dst = binary.AppendUvarint(dst, tc.Parent)
	var flags byte
	if tc.Sampled {
		flags |= 1
	}
	return append(dst, flags)
}

// TraceContext reads the wire fields written by AppendTraceContext.
func (r *Reader) TraceContext() obs.TraceContext {
	return obs.TraceContext{
		TraceID: r.Uvarint("trace id"),
		Parent:  r.Uvarint("trace parent"),
		Sampled: r.Byte("trace flags")&1 != 0,
	}
}

// AppendSpanBatch appends the encoded batch to dst. A nil batch encodes
// to nothing (dst unchanged), mirroring DecodeSpanBatch's treatment of
// empty input.
func AppendSpanBatch(dst []byte, b *obs.SpanBatch) []byte {
	if b == nil {
		return dst
	}
	start := len(dst)
	dst = append(dst, traceMagic[:]...)
	dst = append(dst, traceVersion)
	dst = AppendTraceContext(dst, b.Ctx)
	dst = binary.AppendVarint(dst, int64(b.SiteID))
	dst = binary.AppendVarint(dst, b.SiteClock)
	dst = binary.AppendUvarint(dst, uint64(len(b.Spans)))
	for i := range b.Spans {
		s := &b.Spans[i]
		dst = binary.AppendUvarint(dst, s.ID)
		dst = binary.AppendUvarint(dst, s.Parent)
		name := s.Name
		if len(name) > maxSpanName {
			name = name[:maxSpanName]
		}
		dst = binary.AppendUvarint(dst, uint64(len(name)))
		dst = append(dst, name...)
		dst = binary.AppendVarint(dst, int64(s.Site))
		dst = binary.AppendVarint(dst, s.Start-b.SiteClock)
		dst = binary.AppendVarint(dst, s.End-b.SiteClock)
		dst = binary.AppendVarint(dst, s.Tuples)
		dst = binary.AppendVarint(dst, s.Bytes)
	}
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], crc32.ChecksumIEEE(dst[start:]))
	return append(dst, tail[:]...)
}

// DecodeSpanBatch decodes a batch written by AppendSpanBatch. Empty input
// — the field a pre-tracing peer never sets — decodes to (nil, nil), so
// callers need no version negotiation; any other malformed input returns
// ErrCorrupt.
func DecodeSpanBatch(data []byte) (*obs.SpanBatch, error) {
	if len(data) == 0 {
		return nil, nil
	}
	if len(data) < len(traceMagic)+1+4 {
		return nil, fmt.Errorf("%w: span batch truncated", ErrCorrupt)
	}
	payload, tail := data[:len(data)-4], data[len(data)-4:]
	if binary.LittleEndian.Uint32(tail) != crc32.ChecksumIEEE(payload) {
		return nil, fmt.Errorf("%w: span batch checksum mismatch", ErrCorrupt)
	}
	if [4]byte(payload[:4]) != traceMagic {
		return nil, fmt.Errorf("%w: span batch magic", ErrCorrupt)
	}
	if payload[4] != traceVersion {
		return nil, fmt.Errorf("codec: unsupported span batch version %d", payload[4])
	}
	r := NewReader(payload[5:], ErrCorrupt, "span batch")
	b := &obs.SpanBatch{Ctx: r.TraceContext(), SiteID: int(r.Varint("site id")), SiteClock: r.Varint("site clock")}
	b.Spans = make([]obs.SpanRecord, r.Count("span count", minSpanBytes, maxBatchSpans))
	for i := range b.Spans {
		s := &b.Spans[i]
		s.ID = r.Uvarint("span id")
		s.Parent = r.Uvarint("span parent")
		s.Name = string(r.Bytes("span name", r.Count("span name length", 1, maxSpanName)))
		s.Site = int(r.Varint("span site"))
		s.Start = r.Varint("span start") + b.SiteClock
		s.End = r.Varint("span end") + b.SiteClock
		s.Tuples = r.Varint("span tuples")
		s.Bytes = r.Varint("span bytes")
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return b, nil
}

// TupleWireSize is the binary-encoded size of one tuple at the given
// dimensionality — the unit the site-side bandwidth ledger uses to turn
// tuple counts into approximate payload bytes (the ID's varint is
// estimated at its sequential-ID cost of one byte, plus one byte of
// framing).
func TupleWireSize(dims int) int64 {
	return int64(8*(dims+1)) + 2
}
