package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"
)

func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{nil, {}, {0}, []byte("hello"), bytes.Repeat([]byte{0xAB}, 4096)}
	ids := []uint64{0, 1, 1 << 40, ^uint64(0)}
	types := []FrameType{FrameRequest, FrameResponse, FrameCancel}
	var wire []byte
	var want []Frame
	for i, p := range payloads {
		ft := types[i%len(types)]
		id := ids[i%len(ids)]
		wire = AppendFrame(wire, ft, id, p)
		want = append(want, Frame{Type: ft, ID: id, Payload: p})
	}
	r := NewFrameReader(bytes.NewReader(wire))
	total := 0
	for i, w := range want {
		fr, n, err := r.ReadFrame()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if fr.Type != w.Type || fr.ID != w.ID || !bytes.Equal(fr.Payload, w.Payload) {
			t.Fatalf("frame %d: got %+v want %+v", i, fr, w)
		}
		if n != FrameBytes(len(w.Payload)) {
			t.Fatalf("frame %d: consumed %d bytes, FrameBytes says %d", i, n, FrameBytes(len(w.Payload)))
		}
		total += n
	}
	if total != len(wire) {
		t.Fatalf("consumed %d of %d wire bytes", total, len(wire))
	}
	if _, _, err := r.ReadFrame(); err != io.EOF {
		t.Fatalf("exhausted stream: want io.EOF, got %v", err)
	}
}

func TestFrameCorruption(t *testing.T) {
	frame := AppendFrame(nil, FrameRequest, 42, []byte("payload"))

	// Every single-bit flip must fail the checksum (or the structural
	// checks) — never decode silently wrong, never panic.
	for i := 4; i < len(frame); i++ { // skip the length prefix: handled below
		corrupt := append([]byte(nil), frame...)
		corrupt[i] ^= 0x01
		if _, _, err := NewFrameReader(bytes.NewReader(corrupt)).ReadFrame(); err == nil {
			t.Fatalf("bit flip at byte %d decoded cleanly", i)
		}
	}

	// A length prefix pointing past the buffer is a truncation error.
	short := append([]byte(nil), frame...)
	binary.LittleEndian.PutUint32(short[:4], uint32(len(frame)+100))
	if _, _, err := NewFrameReader(bytes.NewReader(short)).ReadFrame(); err == nil || errors.Is(err, io.EOF) {
		t.Fatalf("oversized length prefix: want frame error, got %v", err)
	}

	// An implausibly large length must error before allocating.
	huge := binary.LittleEndian.AppendUint32(nil, 1<<31)
	if _, _, err := NewFrameReader(bytes.NewReader(huge)).ReadFrame(); !errors.Is(err, ErrFrame) {
		t.Fatalf("huge length: want ErrFrame, got %v", err)
	}

	// Truncation inside the body is an error, not EOF.
	if _, _, err := NewFrameReader(bytes.NewReader(frame[:len(frame)-3])).ReadFrame(); !errors.Is(err, ErrFrame) {
		t.Fatalf("truncated body: want ErrFrame, got %v", err)
	}
	if _, _, err := NewFrameReader(bytes.NewReader(frame[:2])).ReadFrame(); !errors.Is(err, ErrFrame) {
		t.Fatalf("truncated length prefix: want ErrFrame, got %v", err)
	}
}

func TestFrameVersionRejected(t *testing.T) {
	frame := AppendFrame(nil, FrameResponse, 7, []byte("x"))
	// Rewrite the version byte and fix the CRC so only the version check
	// can object.
	body := append([]byte(nil), frame[4:len(frame)-4]...)
	body[0] = FrameVersion + 1
	rebuilt := binary.LittleEndian.AppendUint32(nil, uint32(len(body)+4))
	rebuilt = append(rebuilt, body...)
	rebuilt = appendCRC(rebuilt, body)
	_, _, err := NewFrameReader(bytes.NewReader(rebuilt)).ReadFrame()
	if !errors.Is(err, ErrFrame) || !strings.Contains(err.Error(), "version") {
		t.Fatalf("future version: want version error, got %v", err)
	}
}

// A plausible length prefix is a claim, not a fact: the reader must not
// allocate the claimed gigabyte before the bytes behind it have arrived.
func TestReadFrameHostileLength(t *testing.T) {
	stream := binary.LittleEndian.AppendUint32(nil, MaxFramePayload)
	stream = append(stream, "sixbyt"...) // a 10-byte stream in all
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := NewFrameReader(bytes.NewReader(stream)).ReadFrame()
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrFrame) {
		t.Fatalf("1 GiB prefix on a 10-byte stream: want ErrFrame, got %v", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("reader allocated %d bytes for a 10-byte stream", grew)
	}
}

// A frame larger than one read chunk arrives through several reads into
// a buffer that grows as the bytes do; a small frame after it reuses it.
func TestReadFrameChunkedGrowth(t *testing.T) {
	big := bytes.Repeat([]byte{0x5A}, 5*frameChunk+123)
	wire := AppendFrame(nil, FrameResponse, 9, big)
	wire = AppendFrame(wire, FrameRequest, 10, []byte("small"))
	r := NewFrameReader(iotest.OneByteReader(bytes.NewReader(wire)))
	fr, n, err := r.ReadFrame()
	if err != nil || fr.ID != 9 || !bytes.Equal(fr.Payload, big) || n != FrameBytes(len(big)) {
		t.Fatalf("big frame: id %d, %d payload bytes, n %d, err %v", fr.ID, len(fr.Payload), n, err)
	}
	fr, _, err = r.ReadFrame()
	if err != nil || fr.ID != 10 || string(fr.Payload) != "small" {
		t.Fatalf("small frame after big: %+v, %v", fr, err)
	}
}

func TestMuxHandshakeCarriesVersion(t *testing.T) {
	if h := MuxHandshake(); [4]byte(h[:4]) != MuxMagic || h[4] != FrameVersion {
		t.Fatalf("handshake %x, want magic %x + version %d", h, MuxMagic, FrameVersion)
	}
}

// FuzzDecodeFrame feeds arbitrary bytes through the frame reader: any
// input must either decode to a self-consistent frame or return an
// error — never panic, never over-read.
func FuzzDecodeFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendFrame(nil, FrameRequest, 1, []byte("seed")))
	f.Add(AppendFrame(nil, FrameCancel, 99, nil))
	long := AppendFrame(nil, FrameResponse, 1<<50, bytes.Repeat([]byte("x"), 300))
	f.Add(long)
	f.Add(long[:7])
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0x7F})
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, n, err := NewFrameReader(bytes.NewReader(data)).ReadFrame()
		if err != nil {
			return
		}
		if n > len(data) {
			t.Fatalf("claimed to consume %d of %d bytes", n, len(data))
		}
		// A successful decode must re-encode to the exact consumed bytes.
		again := AppendFrame(nil, fr.Type, fr.ID, fr.Payload)
		if !bytes.Equal(again, data[:n]) {
			t.Fatalf("re-encode mismatch:\n got %x\nwant %x", again, data[:n])
		}
	})
}

func appendCRC(dst, body []byte) []byte {
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(body))
}

// A Buffer keeps a large capacity while large messages keep coming and
// drops it once keepLarge small ones in a row have passed; it never keeps
// one past maxRetainedFrame.
func TestBufferKeepsLargeOnlyWhileNeeded(t *testing.T) {
	var b Buffer
	large := make([]byte, smallBuffer+1)
	b.Keep(large)
	for i := 0; i < 3*keepLarge; i++ {
		if cap(b.Bytes()) != cap(large) {
			t.Fatalf("message %d: a recurring large message lost its buffer", i)
		}
		if i%(keepLarge-1) == 0 {
			b.Keep(large)
		} else {
			b.Keep(append(b.Bytes(), 1))
		}
	}
	b.Keep(large)
	for i := 0; i < keepLarge; i++ {
		b.Keep(append(b.Bytes(), 1))
	}
	if cap(b.Bytes()) > smallBuffer {
		t.Fatalf("after %d small messages the buffer still holds %d bytes", keepLarge, cap(b.Bytes()))
	}
	b.Keep(make([]byte, 8))
	if cap(b.Bytes()) != 8 {
		t.Fatal("a small buffer was not kept")
	}
	b.Keep(make([]byte, maxRetainedFrame+1))
	if cap(b.Bytes()) != 0 {
		t.Fatal("a buffer past maxRetainedFrame was kept")
	}
}
