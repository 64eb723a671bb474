package codec

// Telemetry wire format. Sites push one Telemetry snapshot per
// subscription interval over the v2 mux connection (FrameTelemetry), so
// the encoding is on a steady-state hot path: like the span-batch format
// it is hand-rolled — versioned, CRC-checked, fuzzable — rather than
// gob, and the publisher encodes with zero allocations into a reused
// buffer. Successive snapshots are highly self-similar (a ~40-bucket
// histogram where only a few buckets moved, counters that advanced a
// little), so every push after the first is delta-encoded against its
// predecessor: bucket counts and cumulative counters ride as signed
// varint deltas, and the static bucket bounds are omitted entirely.
// TCP delivers subscription pushes reliably and in order, so the decoder
// only needs the previous snapshot of the same subscription; a periodic
// full snapshot (the publisher's choice) re-anchors the stream anyway,
// out of an abundance of robustness.
//
// Layout:
//
//	magic "DSTY" | version u8 | flags u8 (bit0 = delta)
//	seq uvarint | wall varint | site varint
//	gauges: tuples, sessions, inflight, replicaSize, replicaVersion,
//	        muxConns, muxBusy, muxLimit, muxQueued  (varints)
//	counters: requests, lastUpdate (varint; delta-coded when flagged)
//	window: width varint | span varint | count varint | sum varint
//	        | nbounds uvarint | bounds varints (full frames only)
//	        | nbounds+1 bucket counts (varint; delta-coded when flagged)
//	slo: count uvarint | per entry: nameLen uvarint | name
//	        | current f64 | target f64 | burn f64 | flags u8 (bit0 breached)
//	crc32(everything above) u32

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
)

var telemetryMagic = [4]byte{'D', 'S', 'T', 'Y'}

const telemetryVersion = 1

// Decode-side sanity bounds, in the style of the span-batch decoder: a
// hostile (but CRC-valid) header must not force large allocations.
const (
	maxTelemetryBuckets = 1 << 12
	maxTelemetrySLOs    = 1 << 8
	maxTelemetrySLOName = 256
)

// ErrTelemetryDelta reports a delta-encoded snapshot arriving without a
// compatible predecessor — a protocol error on an ordered stream (the
// publisher always opens with a full snapshot).
var ErrTelemetryDelta = errors.New("codec: telemetry delta without matching predecessor")

// TelemetrySLO is one SLO objective's state as carried in a telemetry
// snapshot — the push-plane projection of the site's /slostatusz entry.
type TelemetrySLO struct {
	Name     string  `json:"name"`
	Current  float64 `json:"current"`
	Target   float64 `json:"target"`
	Burn     float64 `json:"burn"`
	Breached bool    `json:"breached"`
}

// Telemetry is one site's pushed operational snapshot: the FrameTelemetry
// payload, decoded. All values are absolute — delta coding is purely a
// wire concern. Slices are reused across fills and decodes, so a
// long-lived publisher or subscriber holds steady-state allocations at
// zero.
type Telemetry struct {
	// Seq numbers pushes within one subscription, starting at 1; WallNano
	// stamps the site's clock at snapshot time; Site is the site index.
	Seq      uint64 `json:"seq"`
	WallNano int64  `json:"wall_nano"`
	Site     int64  `json:"site"`

	// Gauges, mirroring transport.SiteStatus.
	Tuples         int64 `json:"tuples"`
	Sessions       int64 `json:"sessions"`
	InFlight       int64 `json:"in_flight"`
	ReplicaSize    int64 `json:"replica_size"`
	ReplicaVersion int64 `json:"replica_version"`
	MuxConns       int64 `json:"mux_conns"`
	MuxBusy        int64 `json:"mux_busy"`
	MuxLimit       int64 `json:"mux_limit"`
	MuxQueued      int64 `json:"mux_queued"`

	// Cumulative counters (absolute here, deltas on the wire).
	Requests       int64 `json:"requests"`
	LastUpdateNano int64 `json:"last_update_nano"`

	// The site's rotating request-latency window (obs.Window), shipped
	// whole so the coordinator can merge histograms across sites and
	// interpolate cluster-wide quantiles: WindowWidthNS is the rotation
	// period, WindowSpanNS the span the counts cover, Bounds the bucket
	// upper bounds in ns (static per site) and Counts the non-cumulative
	// per-bucket observations with Counts[len(Bounds)] the +Inf tail.
	WindowWidthNS int64    `json:"window_width_ns"`
	WindowSpanNS  int64    `json:"window_span_ns"`
	WindowCount   int64    `json:"window_count"`
	WindowSumNS   int64    `json:"window_sum_ns"`
	Bounds        []int64  `json:"bounds,omitempty"`
	Counts        []uint64 `json:"counts,omitempty"`

	// SLO carries the site's objective states (empty when no monitor).
	SLO []TelemetrySLO `json:"slo,omitempty"`
}

// CompatibleDelta reports whether t can be delta-encoded against prev:
// same site, consecutive sequence, identical bucket layout.
func (t *Telemetry) CompatibleDelta(prev *Telemetry) bool {
	return prev != nil && prev.Site == t.Site && prev.Seq+1 == t.Seq &&
		len(prev.Bounds) == len(t.Bounds) && len(prev.Counts) == len(t.Counts)
}

// AppendTelemetry appends the encoded snapshot to dst and returns the
// extended slice. When t is delta-compatible with prev the frame is
// delta-encoded (bounds omitted, counts and counters as deltas);
// otherwise it is a self-contained full snapshot. Allocation-free given
// capacity in dst.
func AppendTelemetry(dst []byte, t, prev *Telemetry) []byte {
	delta := t.CompatibleDelta(prev)
	start := len(dst)
	dst = append(dst, telemetryMagic[:]...)
	dst = append(dst, telemetryVersion)
	var flags byte
	if delta {
		flags |= 1
	}
	dst = append(dst, flags)
	dst = binary.AppendUvarint(dst, t.Seq)
	dst = binary.AppendVarint(dst, t.WallNano)
	dst = binary.AppendVarint(dst, t.Site)

	dst = binary.AppendVarint(dst, t.Tuples)
	dst = binary.AppendVarint(dst, t.Sessions)
	dst = binary.AppendVarint(dst, t.InFlight)
	dst = binary.AppendVarint(dst, t.ReplicaSize)
	dst = binary.AppendVarint(dst, t.ReplicaVersion)
	dst = binary.AppendVarint(dst, t.MuxConns)
	dst = binary.AppendVarint(dst, t.MuxBusy)
	dst = binary.AppendVarint(dst, t.MuxLimit)
	dst = binary.AppendVarint(dst, t.MuxQueued)

	if delta {
		dst = binary.AppendVarint(dst, t.Requests-prev.Requests)
		dst = binary.AppendVarint(dst, t.LastUpdateNano-prev.LastUpdateNano)
	} else {
		dst = binary.AppendVarint(dst, t.Requests)
		dst = binary.AppendVarint(dst, t.LastUpdateNano)
	}

	dst = binary.AppendVarint(dst, t.WindowWidthNS)
	dst = binary.AppendVarint(dst, t.WindowSpanNS)
	dst = binary.AppendVarint(dst, t.WindowCount)
	dst = binary.AppendVarint(dst, t.WindowSumNS)
	dst = binary.AppendUvarint(dst, uint64(len(t.Bounds)))
	if !delta {
		for _, b := range t.Bounds {
			dst = binary.AppendVarint(dst, b)
		}
	}
	for i, c := range t.Counts {
		if delta {
			dst = binary.AppendVarint(dst, int64(c)-int64(prev.Counts[i]))
		} else {
			dst = binary.AppendUvarint(dst, c)
		}
	}

	dst = binary.AppendUvarint(dst, uint64(len(t.SLO)))
	for i := range t.SLO {
		s := &t.SLO[i]
		name := s.Name
		if len(name) > maxTelemetrySLOName {
			name = name[:maxTelemetrySLOName]
		}
		dst = binary.AppendUvarint(dst, uint64(len(name)))
		dst = append(dst, name...)
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(s.Current))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(s.Target))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(s.Burn))
		var sf byte
		if s.Breached {
			sf |= 1
		}
		dst = append(dst, sf)
	}

	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], crc32.ChecksumIEEE(dst[start:]))
	return append(dst, tail[:]...)
}

// AppendSubscribe appends the FrameSubscribe payload — the requested
// push interval — to dst. (Integrity is the frame layer's CRC; this body
// only needs a version byte for future fields.)
func AppendSubscribe(dst []byte, interval int64) []byte {
	dst = append(dst, telemetryVersion)
	return binary.AppendVarint(dst, interval)
}

// DecodeSubscribe parses a FrameSubscribe payload, returning the
// requested push interval in nanoseconds.
func DecodeSubscribe(data []byte) (int64, error) {
	if len(data) < 2 {
		return 0, fmt.Errorf("%w: subscribe truncated", ErrCorrupt)
	}
	if data[0] != telemetryVersion {
		return 0, fmt.Errorf("codec: unsupported subscribe version %d", data[0])
	}
	v, n := binary.Varint(data[1:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: subscribe interval", ErrCorrupt)
	}
	return v, nil
}

// DecodeTelemetry decodes one snapshot written by AppendTelemetry into
// out, reusing out's slices. prev must be the previous snapshot of the
// same subscription (what the last call decoded) and may alias out: the
// decoder reads everything it needs from prev before overwriting. A
// delta frame without a compatible prev fails with ErrTelemetryDelta;
// malformed input fails with ErrCorrupt; neither ever panics.
func DecodeTelemetry(data []byte, out, prev *Telemetry) error {
	if len(data) < len(telemetryMagic)+2+4 {
		return fmt.Errorf("%w: telemetry truncated", ErrCorrupt)
	}
	payload, tail := data[:len(data)-4], data[len(data)-4:]
	if binary.LittleEndian.Uint32(tail) != crc32.ChecksumIEEE(payload) {
		return fmt.Errorf("%w: telemetry checksum mismatch", ErrCorrupt)
	}
	if [4]byte(payload[:4]) != telemetryMagic {
		return fmt.Errorf("%w: telemetry magic", ErrCorrupt)
	}
	if payload[4] != telemetryVersion {
		return fmt.Errorf("codec: unsupported telemetry version %d", payload[4])
	}
	delta := payload[5]&1 != 0
	r := NewReader(payload[6:], ErrCorrupt, "telemetry")

	t := Telemetry{Seq: r.Uvarint("seq"), WallNano: r.Varint("wall"), Site: r.Varint("site")}
	for _, f := range []*int64{
		&t.Tuples, &t.Sessions, &t.InFlight, &t.ReplicaSize, &t.ReplicaVersion,
		&t.MuxConns, &t.MuxBusy, &t.MuxLimit, &t.MuxQueued,
		&t.Requests, &t.LastUpdateNano,
	} {
		*f = r.Varint("gauge")
	}
	// A delta is judged against prev only once its own fields are known
	// to be intact: a truncated frame is corrupt, not a lost base.
	if err := r.Err(); err != nil {
		return err
	}
	if delta {
		if prev == nil || prev.Site != t.Site || prev.Seq+1 != t.Seq {
			return ErrTelemetryDelta
		}
		t.Requests += prev.Requests
		t.LastUpdateNano += prev.LastUpdateNano
	}
	for _, f := range []*int64{&t.WindowWidthNS, &t.WindowSpanNS, &t.WindowCount, &t.WindowSumNS} {
		*f = r.Varint("window")
	}
	nbounds := r.Count("bucket count", 1, maxTelemetryBuckets)
	if err := r.Err(); err != nil {
		return err
	}
	if delta && (len(prev.Bounds) != nbounds || len(prev.Counts) != nbounds+1) {
		return ErrTelemetryDelta
	}

	// From here on the output slices are written; prev may alias out, so
	// prev-derived values are read just before each overwrite (bounds are
	// copied element-wise in place, counts add their delta in place).
	bounds := out.Bounds[:0]
	if delta {
		bounds = prev.Bounds[:nbounds] // alias-safe: unchanged by a delta frame
	} else {
		for i := 0; i < nbounds; i++ {
			bounds = append(bounds, r.Varint("bound"))
		}
	}
	counts := out.Counts[:0]
	for i := 0; i <= nbounds; i++ {
		if !delta {
			counts = append(counts, r.Uvarint("count"))
			continue
		}
		d := r.Varint("count delta")
		c := int64(prev.Counts[i]) + d
		if c < 0 {
			r.Fail("count underflow")
			c -= d
		}
		counts = append(counts, uint64(c))
	}
	slos := out.SLO[:0]
	for n := r.Count("slo count", 1+3*8+1, maxTelemetrySLOs); n > 0; n-- {
		slos = append(slos, TelemetrySLO{
			Name:     string(r.Bytes("slo name", r.Count("slo name length", 1, maxTelemetrySLOName))),
			Current:  r.Float("slo current"),
			Target:   r.Float("slo target"),
			Burn:     r.Float("slo burn"),
			Breached: r.Byte("slo state")&1 != 0,
		})
	}
	if err := r.Finish(); err != nil {
		return err
	}

	*out = t
	out.Bounds = bounds
	out.Counts = counts
	out.SLO = slos
	return nil
}
