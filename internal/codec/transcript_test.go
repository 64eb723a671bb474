package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"reflect"
	"testing"
)

func testTranscriptHeader() TranscriptHeader {
	return TranscriptHeader{
		QueryID:        0xDEADBEEF,
		Session:        1 << 32,
		Algorithm:      3,
		Policy:         1,
		Threshold:      0.6,
		StartUnixNano:  1700000000123456789,
		Sites:          4,
		Dimensionality: 3,
		TopK:           8,
		MaxResults:     -1,
		Flags:          TranscriptFlagDisableExpunge,
		Dims:           []int64{0, 2, 3},
	}
}

func testTranscriptMessage() TranscriptMessage {
	return TranscriptMessage{
		Dir:       TranscriptDirResponse,
		Phase:     2,
		Kind:      3,
		Site:      1,
		Ordinal:   17,
		WireBytes: 451,
		TNano:     98765,
		Payload:   []byte("gob-blob"),
	}
}

func testTranscriptSummary() TranscriptSummary {
	return TranscriptSummary{
		Results: 5, Iterations: 9, Broadcasts: 4, Expunged: 1, Refills: 3,
		PrunedLocal: 40, TuplesUp: 33, TuplesDown: 12, Messages: 60,
		Bytes: 9001, ElapsedNS: 12345678,
		AUCBandwidth:   0.73,
		SkylineIDs:     []uint64{9, 4, 100},
		SkylineProbs:   []float64{0.9, 0.8, 0.61},
		PerSiteShipped: []int64{10, 23},
		PerSitePruned:  []int64{5, 2},
	}
}

func TestTranscriptRoundTrip(t *testing.T) {
	h := testTranscriptHeader()
	m := testTranscriptMessage()
	s := testTranscriptSummary()

	wire := AppendTranscriptPreamble(nil)
	wire = AppendTranscriptFrame(wire, TranscriptHeaderFrame, AppendTranscriptHeader(nil, &h))
	wire = AppendTranscriptFrame(wire, TranscriptMessageFrame, AppendTranscriptMessage(nil, &m))
	wire = AppendTranscriptFrame(wire, TranscriptSummaryFrame, AppendTranscriptSummary(nil, &s))

	n, err := CheckTranscriptPreamble(wire)
	if err != nil {
		t.Fatalf("preamble: %v", err)
	}
	r := bytes.NewReader(wire[n:])

	fr, _, err := ReadTranscriptFrame(r)
	if err != nil || fr.Type != TranscriptHeaderFrame {
		t.Fatalf("header frame: %+v %v", fr, err)
	}
	gotH, err := DecodeTranscriptHeader(fr.Payload)
	if err != nil {
		t.Fatalf("decode header: %v", err)
	}
	if !reflect.DeepEqual(gotH, h) {
		t.Fatalf("header round trip:\n got %+v\nwant %+v", gotH, h)
	}

	fr, _, err = ReadTranscriptFrame(r)
	if err != nil || fr.Type != TranscriptMessageFrame {
		t.Fatalf("message frame: %+v %v", fr, err)
	}
	gotM, err := DecodeTranscriptMessage(fr.Payload)
	if err != nil {
		t.Fatalf("decode message: %v", err)
	}
	if !reflect.DeepEqual(gotM, m) {
		t.Fatalf("message round trip:\n got %+v\nwant %+v", gotM, m)
	}

	fr, _, err = ReadTranscriptFrame(r)
	if err != nil || fr.Type != TranscriptSummaryFrame {
		t.Fatalf("summary frame: %+v %v", fr, err)
	}
	gotS, err := DecodeTranscriptSummary(fr.Payload)
	if err != nil {
		t.Fatalf("decode summary: %v", err)
	}
	if !reflect.DeepEqual(gotS, s) {
		t.Fatalf("summary round trip:\n got %+v\nwant %+v", gotS, s)
	}

	if _, _, err := ReadTranscriptFrame(r); err != io.EOF {
		t.Fatalf("exhausted stream: want io.EOF, got %v", err)
	}
}

func TestTranscriptCorruption(t *testing.T) {
	m := testTranscriptMessage()
	frame := AppendTranscriptFrame(nil, TranscriptMessageFrame, AppendTranscriptMessage(nil, &m))

	// Every single-bit flip past the length prefix must fail the CRC —
	// never decode silently wrong, never panic.
	for i := 4; i < len(frame); i++ {
		corrupt := append([]byte(nil), frame...)
		corrupt[i] ^= 0x01
		if _, _, err := ReadTranscriptFrame(bytes.NewReader(corrupt)); err == nil {
			t.Fatalf("bit flip at byte %d decoded cleanly", i)
		}
	}

	// An implausibly large length must error before allocating.
	huge := binary.LittleEndian.AppendUint32(nil, 1<<31)
	if _, _, err := ReadTranscriptFrame(bytes.NewReader(huge)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("huge length: want ErrCorrupt, got %v", err)
	}

	// Truncation inside the body is an error, not EOF.
	if _, _, err := ReadTranscriptFrame(bytes.NewReader(frame[:len(frame)-3])); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated body: want ErrCorrupt, got %v", err)
	}
	if _, _, err := ReadTranscriptFrame(bytes.NewReader(frame[:2])); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated length prefix: want ErrCorrupt, got %v", err)
	}

	// A bad preamble must be rejected.
	if _, err := CheckTranscriptPreamble([]byte("DSTX\x01")); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad magic: want ErrCorrupt, got %v", err)
	}
	if _, err := CheckTranscriptPreamble([]byte{'D', 'S', 'T', 'R', TranscriptVersion + 1}); err == nil {
		t.Fatalf("future version accepted")
	}
}

// TestTranscriptUnknownFrameTypeSkipped pins the forward-compat
// contract: a reader encountering a frame type this build does not know
// must be able to skip it and keep decoding the rest of the stream —
// the same padding semantics the v2 mux frames carry.
func TestTranscriptUnknownFrameTypeSkipped(t *testing.T) {
	h := testTranscriptHeader()
	s := testTranscriptSummary()

	wire := AppendTranscriptPreamble(nil)
	wire = AppendTranscriptFrame(wire, TranscriptHeaderFrame, AppendTranscriptHeader(nil, &h))
	// A frame type from the future, with an arbitrary body.
	wire = AppendTranscriptFrame(wire, TranscriptFrameType(200), []byte("annotation from the future"))
	wire = AppendTranscriptFrame(wire, TranscriptSummaryFrame, AppendTranscriptSummary(nil, &s))

	n, err := CheckTranscriptPreamble(wire)
	if err != nil {
		t.Fatalf("preamble: %v", err)
	}
	r := bytes.NewReader(wire[n:])
	var types []TranscriptFrameType
	for {
		fr, _, err := ReadTranscriptFrame(r)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		switch fr.Type {
		case TranscriptHeaderFrame, TranscriptMessageFrame, TranscriptSummaryFrame:
			types = append(types, fr.Type)
		default:
			// Unknown: skipped without decoding — and without error.
		}
	}
	want := []TranscriptFrameType{TranscriptHeaderFrame, TranscriptSummaryFrame}
	if !reflect.DeepEqual(types, want) {
		t.Fatalf("frames after skipping unknown: got %v want %v", types, want)
	}
}

func TestTranscriptSummaryNaNSafe(t *testing.T) {
	s := TranscriptSummary{AUCBandwidth: math.NaN()}
	got, err := DecodeTranscriptSummary(AppendTranscriptSummary(nil, &s))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !math.IsNaN(got.AUCBandwidth) {
		t.Fatalf("NaN AUC round trip: got %v", got.AUCBandwidth)
	}
}

// FuzzDecodeTranscript feeds arbitrary bytes through the transcript
// frame reader and the typed body decoders: any input must either
// decode to a self-consistent frame or return an error — never panic,
// never over-read.
func FuzzDecodeTranscript(f *testing.F) {
	h := testTranscriptHeader()
	m := testTranscriptMessage()
	s := testTranscriptSummary()
	f.Add([]byte{})
	f.Add(AppendTranscriptFrame(nil, TranscriptHeaderFrame, AppendTranscriptHeader(nil, &h)))
	f.Add(AppendTranscriptFrame(nil, TranscriptMessageFrame, AppendTranscriptMessage(nil, &m)))
	f.Add(AppendTranscriptFrame(nil, TranscriptSummaryFrame, AppendTranscriptSummary(nil, &s)))
	f.Add(AppendTranscriptFrame(nil, TranscriptFrameType(99), []byte("future")))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0x7F})
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, n, err := ReadTranscriptFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		if n > len(data) {
			t.Fatalf("claimed to consume %d of %d bytes", n, len(data))
		}
		// A successful frame read must re-encode to the exact consumed
		// bytes.
		again := AppendTranscriptFrame(nil, fr.Type, fr.Payload)
		if !bytes.Equal(again, data[:n]) {
			t.Fatalf("re-encode mismatch:\n got %x\nwant %x", again, data[:n])
		}
		// Typed decoders must never panic; anything accepted must
		// survive a re-encode → re-decode cycle (byte equality is too
		// strict: varints are not canonical).
		switch fr.Type {
		case TranscriptHeaderFrame:
			if h, err := DecodeTranscriptHeader(fr.Payload); err == nil {
				if _, err := DecodeTranscriptHeader(AppendTranscriptHeader(nil, &h)); err != nil {
					t.Fatalf("header re-decode: %v", err)
				}
			}
		case TranscriptMessageFrame:
			if m, err := DecodeTranscriptMessage(fr.Payload); err == nil {
				if _, err := DecodeTranscriptMessage(AppendTranscriptMessage(nil, &m)); err != nil {
					t.Fatalf("message re-decode: %v", err)
				}
			}
		case TranscriptSummaryFrame:
			if s, err := DecodeTranscriptSummary(fr.Payload); err == nil {
				if _, err := DecodeTranscriptSummary(AppendTranscriptSummary(nil, &s)); err != nil {
					t.Fatalf("summary re-decode: %v", err)
				}
			}
		}
	})
}
