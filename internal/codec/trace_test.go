package codec

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"reflect"
	"testing"

	"repro/internal/obs"
)

func TestTraceContextRoundTrip(t *testing.T) {
	cases := []obs.TraceContext{
		{},
		{TraceID: 1, Parent: 2, Sampled: true},
		{TraceID: ^uint64(0), Parent: ^uint64(0) >> 1, Sampled: false},
		{TraceID: 0x1234567890abcdef, Sampled: true},
	}
	for _, tc := range cases {
		wire := AppendTraceContext(nil, tc)
		r := NewReader(wire, ErrCorrupt, "test")
		got := r.TraceContext()
		if err := r.Finish(); err != nil {
			t.Fatalf("%+v: %v (all %d bytes must be consumed)", tc, err, len(wire))
		}
		if got != tc {
			t.Fatalf("round trip: got %+v want %+v", got, tc)
		}
	}
}

func TestTraceContextDecodeTruncated(t *testing.T) {
	wire := AppendTraceContext(nil, obs.TraceContext{TraceID: 9999, Parent: 8888, Sampled: true})
	for i := 0; i < len(wire); i++ {
		r := NewReader(wire[:i], ErrCorrupt, "test")
		if r.TraceContext(); !errors.Is(r.Err(), ErrCorrupt) {
			t.Fatalf("truncation at %d not detected: %v", i, r.Err())
		}
	}
}

func testBatch() *obs.SpanBatch {
	return &obs.SpanBatch{
		Ctx:       obs.TraceContext{TraceID: 42, Parent: 7, Sampled: true},
		SiteID:    3,
		SiteClock: 1_700_000_000_000_000_000,
		Spans: []obs.SpanRecord{
			{ID: 11, Parent: 7, Name: "prtree-search", Site: 3,
				Start: 1_700_000_000_000_000_100, End: 1_700_000_000_000_001_000,
				Tuples: 12, Bytes: 384},
			{ID: 12, Parent: 7, Name: "obs2-prune", Site: 3,
				Start: 1_699_999_999_999_999_000, End: 1_700_000_000_000_000_050,
				Tuples: -3, Bytes: 0},
			{ID: 13, Parent: 7, Name: "", Site: -1,
				Start: 0, End: 0},
		},
	}
}

func TestSpanBatchRoundTrip(t *testing.T) {
	want := testBatch()
	wire := AppendSpanBatch(nil, want)
	got, err := DecodeSpanBatch(wire)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, want)
	}
}

func TestSpanBatchEmptySpans(t *testing.T) {
	want := &obs.SpanBatch{Ctx: obs.TraceContext{TraceID: 5, Sampled: true}, SiteID: 0, SiteClock: 77}
	got, err := DecodeSpanBatch(AppendSpanBatch(nil, want))
	if err != nil {
		t.Fatal(err)
	}
	if got.SiteClock != 77 || len(got.Spans) != 0 {
		t.Fatalf("got %+v", got)
	}
}

// The backward-compatibility contract: the field a pre-tracing peer never
// sets decodes to "no spans" with no error, and a nil batch encodes to
// nothing.
func TestSpanBatchBackwardCompat(t *testing.T) {
	for _, data := range [][]byte{nil, {}} {
		b, err := DecodeSpanBatch(data)
		if b != nil || err != nil {
			t.Fatalf("DecodeSpanBatch(%v) = %v, %v; want nil, nil", data, b, err)
		}
	}
	if out := AppendSpanBatch([]byte("prefix"), nil); string(out) != "prefix" {
		t.Fatalf("nil batch extended dst: %q", out)
	}
}

func TestSpanBatchCorruption(t *testing.T) {
	wire := AppendSpanBatch(nil, testBatch())

	// Every truncation must fail cleanly.
	for i := 1; i < len(wire); i++ {
		if _, err := DecodeSpanBatch(wire[:i]); err == nil {
			t.Fatalf("truncation at %d not detected", i)
		}
	}
	// Every single-byte flip must fail (the CRC covers the whole payload).
	for i := range wire {
		mut := append([]byte(nil), wire...)
		mut[i] ^= 0xff
		if _, err := DecodeSpanBatch(mut); err == nil {
			t.Fatalf("bit flip at %d not detected", i)
		}
	}
	// Wrong version with a valid CRC must be rejected as unsupported.
	mut := append([]byte(nil), wire...)
	mut[4] = 99
	binary.LittleEndian.PutUint32(mut[len(mut)-4:], crc32.ChecksumIEEE(mut[:len(mut)-4]))
	if _, err := DecodeSpanBatch(mut); err == nil || errors.Is(err, ErrCorrupt) {
		t.Fatalf("unsupported version: got %v", err)
	}
}

func TestSpanBatchLongNameTruncatedOnEncode(t *testing.T) {
	long := make([]byte, maxSpanName+100)
	for i := range long {
		long[i] = 'a'
	}
	b := &obs.SpanBatch{Spans: []obs.SpanRecord{{ID: 1, Name: string(long)}}}
	got, err := DecodeSpanBatch(AppendSpanBatch(nil, b))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Spans[0].Name) != maxSpanName {
		t.Fatalf("name length %d, want cap %d", len(got.Spans[0].Name), maxSpanName)
	}
}

func FuzzDecodeSpanBatch(f *testing.F) {
	f.Add([]byte(nil))
	f.Add(AppendSpanBatch(nil, testBatch()))
	f.Add(AppendSpanBatch(nil, &obs.SpanBatch{}))
	f.Add([]byte("DSQT\x01garbage"))
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := DecodeSpanBatch(data)
		if err != nil {
			return
		}
		if b == nil {
			if len(data) != 0 {
				t.Fatalf("nil batch from %d non-empty bytes", len(data))
			}
			return
		}
		// Anything that decodes must re-encode to a decodable equal batch.
		again, err := DecodeSpanBatch(AppendSpanBatch(nil, b))
		if err != nil {
			t.Fatalf("re-encode broke: %v", err)
		}
		if !reflect.DeepEqual(again, b) {
			t.Fatalf("re-encode changed batch:\n got %+v\nwant %+v", again, b)
		}
	})
}
