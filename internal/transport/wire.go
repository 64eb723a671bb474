package transport

// The message encoding: the one binary form of a Request or Response, used
// as the payload of wire frames (internal/codec/frame.go) and as the
// payload blobs of recorded transcripts. It is stateless — every message
// decodes on its own — and hand-rolled in the house idiom: a presence mask
// followed by only the non-zero fields, in mask-bit order.
//
//	request  = mask u16 | kind varint | fields
//	response = status u8 | body
//	           status 0: mask u16 | fields
//	           status 1: the handler's error text, to the end of the payload
//
//	Request, by mask bit                     Response, by mask bit
//	0  Session    u64                        0  Rep            rep
//	1  Seq        uvarint                    1  Exhausted      (the bit is the value)
//	2  Client     u64                        2  CrossProb      f64
//	3  Feed       tuple | homeLocalProb f64  3  Pruned         varint
//	4  Query      threshold f64 | flag u8    4  SessionPruned  varint
//	              (NoPrune) | n × dim varint 5  Tuples         n × rep
//	5  (retired)                             6  (retired)
//	6  Tuple      tuple                      7  Hopeless       (the bit is the value)
//	7  ID         uvarint                    8  Status         n bytes: the SiteStatus JSON document
//	8  Point      point                      9  CrossProbs     n × f64
//	9  Tuples     n × rep                    10 (retired)
//	10 RemoveIDs  n × id uvarint             11 ServiceNS      u64
//	11 (retired)                             12 Version        u64
//	12 Timed      (the bit is the value)     13 Summary        width varint | n × f64
//	13 Refill     (the bit is the value)
//	14 SummaryVersion u64
//
//	tuple = id uvarint | point | prob f64       point = n × f64
//	rep   = tuple | localProb f64               n × x = n uvarint, then n of x
//
// Fixed-width words are little-endian; floats are their IEEE-754 bits.
// Session and client ids and site versions are random 64-bit values, so
// they ride fixed-width, and so does ServiceNS, whose varint length would
// follow the clock; every other integer is small and rides as a varint. An empty
// slice and a nil slice encode alike (absent) and decode to nil. New fields
// take the next free bit, and a retired field's bit is never reused: a bit
// this build does not know is an error, because it cannot skip a field
// whose width it does not know.

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"

	"repro/internal/codec"
	"repro/internal/geom"
	"repro/internal/msg"
	"repro/internal/uncertain"
)

// ErrWire reports a message payload that is truncated, carries trailing
// bytes, claims a count its length cannot hold, or sets an unknown mask
// bit or status.
var ErrWire = errors.New("transport: malformed message")

const (
	statusOK  = 0
	statusErr = 1
)

// minRepBytes is the smallest encoding of a rep (id, empty point, prob,
// localProb), which bounds a claimed count by the bytes left.
const minRepBytes = 1 + 1 + 8 + 8

// wire walks one message's fields in wire order, in either direction: it
// appends to dst when encoding and reads from the embedded Reader when
// decoding, so one description of the layout serves both and the two
// cannot drift apart. Encoding never writes through the message pointers
// (handlers may share one Response between goroutines).
type wire struct {
	codec.Reader
	decoding bool
	dst      []byte
	mask     uint16 // presence bits: collected while encoding, given while decoding
	known    uint16 // every bit the walk asked about
	doc      []byte // encoding: the Status document, marshalled up front
}

func encoder(dst []byte) (w wire, maskAt int) {
	return wire{dst: append(dst, 0, 0)}, len(dst)
}

func (w *wire) encoded(maskAt int) []byte {
	binary.LittleEndian.PutUint16(w.dst[maskAt:], w.mask)
	return w.dst
}

func decoder(data []byte, format string) wire {
	w := wire{Reader: codec.NewReader(data, ErrWire, format), decoding: true}
	if b := w.Bytes("mask", 2); b != nil {
		w.mask = binary.LittleEndian.Uint16(b)
	}
	return w
}

func (w *wire) decoded() error {
	if w.mask&^w.known != 0 {
		w.Fail("unknown mask bit")
	}
	return w.Finish()
}

// has says whether the field owning mask bit n is on the wire: encoding,
// that is the caller's "it is non-zero"; decoding, the mask says.
func (w *wire) has(n uint, set bool) bool {
	bit := uint16(1) << n
	w.known |= bit
	if w.decoding {
		return w.mask&bit != 0
	}
	if set {
		w.mask |= bit
	}
	return set
}

// bit carries a bool as its mask bit alone.
func (w *wire) bit(n uint, p *bool) {
	if w.has(n, *p) && w.decoding {
		*p = true
	}
}

func (w *wire) u64(p *uint64, what string) {
	if w.decoding {
		*p = w.Uint64(what)
	} else {
		w.dst = binary.LittleEndian.AppendUint64(w.dst, *p)
	}
}

func (w *wire) uvarint(p *uint64, what string) {
	if w.decoding {
		*p = w.Uvarint(what)
	} else {
		w.dst = binary.AppendUvarint(w.dst, *p)
	}
}

func (w *wire) varint(p *int, what string) {
	if w.decoding {
		*p = int(w.Varint(what))
	} else {
		w.dst = binary.AppendVarint(w.dst, int64(*p))
	}
}

func (w *wire) float(p *float64, what string) {
	if w.decoding {
		*p = w.Float(what)
	} else {
		w.dst = binary.LittleEndian.AppendUint64(w.dst, math.Float64bits(*p))
	}
}

// flag carries a bool as bit 0 of a byte that has room for more.
func (w *wire) flag(p *bool, what string) {
	switch {
	case w.decoding:
		*p = w.Byte(what)&1 != 0
	case *p:
		w.dst = append(w.dst, 1)
	default:
		w.dst = append(w.dst, 0)
	}
}

// count carries a slice length: encoding, it writes n; decoding, it reads
// one the remaining bytes can hold at minSize bytes an element.
func (w *wire) count(n int, what string, minSize int) int {
	if w.decoding {
		return w.Count(what, minSize, math.MaxUint64)
	}
	w.dst = binary.AppendUvarint(w.dst, uint64(n))
	return n
}

func (w *wire) point(p *geom.Point, what string) {
	if n := w.count(len(*p), what, 8); w.decoding && n > 0 {
		*p = make(geom.Point, n)
	}
	for i := range *p {
		w.float(&(*p)[i], what)
	}
}

func (w *wire) tuple(t *uncertain.Tuple, what string) {
	w.uvarint((*uint64)(&t.ID), what)
	w.point(&t.Point, what)
	w.float(&t.Prob, what)
}

func tupleSet(t *uncertain.Tuple) bool {
	return t.ID != 0 || len(t.Point) > 0 || t.Prob != 0
}

func (w *wire) reps(p *[]msg.Representative, what string) {
	if n := w.count(len(*p), what, minRepBytes); w.decoding && n > 0 {
		*p = make([]msg.Representative, n)
	}
	for i := range *p {
		w.tuple(&(*p)[i].Tuple, what)
		w.float(&(*p)[i].LocalProb, what)
	}
}

// blob carries a byte string; decoding copies it out of the payload.
func (w *wire) blob(p *[]byte, what string) {
	n := w.count(len(*p), what, 1)
	if w.decoding {
		*p = append([]byte(nil), w.Bytes(what, n)...)
	} else {
		w.dst = append(w.dst, *p...)
	}
}

func (w *wire) query(q *msg.Query) {
	w.float(&q.Threshold, "query threshold")
	w.flag(&q.NoPrune, "query flags")
	if n := w.count(len(q.Dims), "query dims", 1); w.decoding && n > 0 {
		q.Dims = make([]int, n)
	}
	for i := range q.Dims {
		w.varint(&q.Dims[i], "query dims")
	}
}

func (w *wire) status(p **msg.SiteStatus) {
	if !w.decoding {
		w.blob(&w.doc, "status")
		return
	}
	doc := w.Bytes("status", w.count(0, "status", 1))
	if w.Err() == nil {
		*p = new(msg.SiteStatus)
		if json.Unmarshal(doc, *p) != nil {
			w.Fail("status document")
		}
	}
}

func (w *wire) request(q *msg.Request) {
	w.varint((*int)(&q.Kind), "kind")
	if w.has(0, q.Session != 0) {
		w.u64(&q.Session, "session")
	}
	if w.has(1, q.Seq != 0) {
		w.uvarint(&q.Seq, "seq")
	}
	if w.has(2, q.Client != 0) {
		w.u64(&q.Client, "client")
	}
	if w.has(3, tupleSet(&q.Feed.Tuple) || q.Feed.HomeLocalProb != 0) {
		w.tuple(&q.Feed.Tuple, "feed")
		w.float(&q.Feed.HomeLocalProb, "feed")
	}
	if w.has(4, q.Query.Threshold != 0 || len(q.Query.Dims) > 0 || q.Query.NoPrune) {
		w.query(&q.Query)
	}
	if w.has(6, tupleSet(&q.Tuple)) {
		w.tuple(&q.Tuple, "tuple")
	}
	if w.has(7, q.ID != 0) {
		w.uvarint((*uint64)(&q.ID), "id")
	}
	if w.has(8, len(q.Point) > 0) {
		w.point(&q.Point, "point")
	}
	if w.has(9, len(q.Tuples) > 0) {
		w.reps(&q.Tuples, "tuples")
	}
	if w.has(10, len(q.RemoveIDs) > 0) {
		if n := w.count(len(q.RemoveIDs), "remove ids", 1); w.decoding && n > 0 {
			q.RemoveIDs = make([]uncertain.TupleID, n)
		}
		for i := range q.RemoveIDs {
			w.uvarint((*uint64)(&q.RemoveIDs[i]), "remove ids")
		}
	}
	w.bit(12, &q.Timed)
	w.bit(13, &q.Refill)
	if w.has(14, q.SummaryVersion != 0) {
		w.u64(&q.SummaryVersion, "summary version")
	}
}

func (w *wire) response(p *msg.Response) {
	if w.has(0, tupleSet(&p.Rep.Tuple) || p.Rep.LocalProb != 0) {
		w.tuple(&p.Rep.Tuple, "rep")
		w.float(&p.Rep.LocalProb, "rep")
	}
	w.bit(1, &p.Exhausted)
	if w.has(2, p.CrossProb != 0) {
		w.float(&p.CrossProb, "cross prob")
	}
	if w.has(3, p.Pruned != 0) {
		w.varint(&p.Pruned, "pruned")
	}
	if w.has(4, p.SessionPruned != 0) {
		w.varint(&p.SessionPruned, "session pruned")
	}
	if w.has(5, len(p.Tuples) > 0) {
		w.reps(&p.Tuples, "tuples")
	}
	w.bit(7, &p.Hopeless)
	if w.has(8, p.Status != nil) {
		w.status(&p.Status)
	}
	if w.has(9, len(p.CrossProbs) > 0) {
		w.point((*geom.Point)(&p.CrossProbs), "cross probs") // the same n × f64
	}
	if w.has(11, p.ServiceNS != 0) {
		ns := uint64(p.ServiceNS)
		if w.u64(&ns, "service ns"); w.decoding {
			p.ServiceNS = int64(ns)
		}
	}
	if w.has(12, p.Version != 0) {
		w.u64(&p.Version, "version")
	}
	if w.has(13, p.Summary.Width != 0) {
		w.varint(&p.Summary.Width, "summary width")
		w.point((*geom.Point)(&p.Summary.Coords), "summary") // n × f64
	}
}

// AppendRequest appends req's encoding to dst and returns the extended
// slice. It allocates only to grow dst.
func AppendRequest(dst []byte, req *msg.Request) []byte {
	w, maskAt := encoder(dst)
	w.request(req)
	return w.encoded(maskAt)
}

// DecodeRequest parses a payload written by AppendRequest into *req,
// overwriting it. Nothing in *req aliases data afterwards. It never
// panics, whatever the input; a malformed payload is an ErrWire.
func DecodeRequest(data []byte, req *msg.Request) error {
	*req = msg.Request{}
	w := decoder(data, "request")
	w.request(req)
	return w.decoded()
}

// AppendResponse appends the encoding of a handler's outcome to dst: the
// error text when herr is non-nil, resp otherwise (a nil resp encodes as
// the zero Response). It allocates only to grow dst, except for the cold
// Status document.
func AppendResponse(dst []byte, resp *msg.Response, herr error) []byte {
	if herr != nil {
		return append(append(dst, statusErr), herr.Error()...)
	}
	if resp == nil {
		resp = &msg.Response{}
	}
	w, maskAt := encoder(append(dst, statusOK))
	if resp.Status != nil {
		var err error
		if w.doc, err = json.Marshal(resp.Status); err != nil {
			// A NaN percentile is the one thing JSON cannot carry.
			return AppendResponse(dst, nil, fmt.Errorf("transport: encode status: %w", err))
		}
	}
	w.response(resp)
	return w.encoded(maskAt)
}

// DecodeResponse parses a payload written by AppendResponse. An error
// response returns the handler's error text as a plain error; otherwise
// *resp is overwritten and nothing in it aliases data afterwards. It never
// panics, whatever the input; a malformed payload is an ErrWire.
func DecodeResponse(data []byte, resp *msg.Response) error {
	*resp = msg.Response{}
	if len(data) == 0 {
		return fmt.Errorf("%w: empty response", ErrWire)
	}
	switch data[0] {
	case statusOK:
	case statusErr:
		return errors.New(string(data[1:]))
	default:
		return fmt.Errorf("%w: response status %d", ErrWire, data[0])
	}
	w := decoder(data[1:], "response")
	w.response(resp)
	return w.decoded()
}
