package codec

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Reader consumes one hand-rolled payload front to back — the decode half
// of the idiom every format in this repository shares (varints for counts
// and small integers, fixed little-endian words for floats and ids). The
// first malformed field records an error wrapping the format's sentinel
// and empties the payload, so every later read is a cheap no-op returning
// zero: a decoder reads straight through and checks Err or Finish once.
// Loops stay bounded because Count never returns more elements than the
// remaining bytes could hold.
type Reader struct {
	rest   []byte
	err    error
	base   error
	format string
}

// NewReader reads data; failures wrap base and name the format.
func NewReader(data []byte, base error, format string) Reader {
	return Reader{rest: data, base: base, format: format}
}

// Fail records a malformed field (the first one wins).
func (r *Reader) Fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s %s", r.base, r.format, what)
	}
	r.rest = nil
}

// Err returns the first failure, if any.
func (r *Reader) Err() error { return r.err }

// Finish returns the first failure, or an error if bytes are left over.
func (r *Reader) Finish() error {
	if r.err == nil && len(r.rest) != 0 {
		r.Fail(fmt.Sprintf("has %d trailing bytes", len(r.rest)))
	}
	return r.err
}

func (r *Reader) Uvarint(what string) uint64 {
	v, n := binary.Uvarint(r.rest)
	if n <= 0 {
		r.Fail(what)
		return 0
	}
	r.rest = r.rest[n:]
	return v
}

func (r *Reader) Varint(what string) int64 {
	v, n := binary.Varint(r.rest)
	if n <= 0 {
		r.Fail(what)
		return 0
	}
	r.rest = r.rest[n:]
	return v
}

// Bytes returns the next n bytes, aliasing the payload.
func (r *Reader) Bytes(what string, n int) []byte {
	if n < 0 || len(r.rest) < n {
		r.Fail(what)
		return nil
	}
	b := r.rest[:n]
	r.rest = r.rest[n:]
	return b
}

func (r *Reader) Byte(what string) byte {
	if b := r.Bytes(what, 1); b != nil {
		return b[0]
	}
	return 0
}

// Uint64 reads a fixed little-endian word.
func (r *Reader) Uint64(what string) uint64 {
	if b := r.Bytes(what, 8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// Float reads a float64 as its IEEE-754 bits, little-endian.
func (r *Reader) Float(what string) float64 { return math.Float64frombits(r.Uint64(what)) }

// Count reads an element count and rejects one larger than max or than
// the remaining bytes can hold at minSize bytes an element, so a decoder
// never allocates more than a small multiple of the payload it was handed.
func (r *Reader) Count(what string, minSize int, max uint64) int {
	n := r.Uvarint(what)
	if n > max || n > uint64(len(r.rest)/minSize) {
		r.Fail(what)
		return 0
	}
	return int(n)
}
