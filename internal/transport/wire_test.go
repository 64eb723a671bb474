package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"reflect"
	"strconv"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/geom"
	"repro/internal/msg"
	"repro/internal/uncertain"
)

// fillNonZero sets every field reachable from v to a distinct non-zero
// value: slices get two elements, pointers a fresh target. A kind it does
// not know is a field the codec cannot know either, so it fails the test.
func fillNonZero(t *testing.T, v reflect.Value, next *int) {
	t.Helper()
	*next++
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int32, reflect.Int64:
		v.SetInt(int64(*next))
	case reflect.Uint8, reflect.Uint64:
		v.SetUint(uint64(*next))
	case reflect.Float64:
		v.SetFloat(float64(*next) + 0.25)
	case reflect.String:
		v.SetString(strconv.Itoa(*next))
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < v.Len(); i++ {
			fillNonZero(t, v.Index(i), next)
		}
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fillNonZero(t, v.Elem(), next)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if !v.Type().Field(i).IsExported() {
				t.Fatalf("%s.%s is unexported: the message types carry only wire fields", v.Type(), v.Type().Field(i).Name)
			}
			fillNonZero(t, v.Field(i), next)
		}
	default:
		t.Fatalf("%s: kind %s has no wire encoding; teach wire.go and this test", v.Type(), v.Kind())
	}
}

// TestWireRoundTripEveryField fills every exported field of Request and
// Response — and, through Response's pointer, of SiteStatus — and
// requires the decoded value to equal the original. A field added to any
// of them without codec support fails here.
func TestWireRoundTripEveryField(t *testing.T) {
	next := 0
	var req msg.Request
	fillNonZero(t, reflect.ValueOf(&req).Elem(), &next)
	var gotReq msg.Request
	if err := DecodeRequest(AppendRequest(nil, &req), &gotReq); err != nil {
		t.Fatalf("DecodeRequest: %v", err)
	}
	if !reflect.DeepEqual(&req, &gotReq) {
		t.Fatalf("request mangled:\n sent %+v\n  got %+v", req, gotReq)
	}

	var resp msg.Response
	fillNonZero(t, reflect.ValueOf(&resp).Elem(), &next)
	var gotResp msg.Response
	if err := DecodeResponse(AppendResponse(nil, &resp, nil), &gotResp); err != nil {
		t.Fatalf("DecodeResponse: %v", err)
	}
	if !reflect.DeepEqual(&resp, &gotResp) {
		t.Fatalf("response mangled:\n sent %+v (status %+v)\n  got %+v (status %+v)",
			resp, resp.Status, gotResp, gotResp.Status)
	}
}

// The zero messages are the smallest ones, and absent fields decode to
// their zero values (nil slices, nil pointers).
func TestWireZeroValues(t *testing.T) {
	if got := AppendRequest(nil, &msg.Request{}); len(got) != 3 {
		t.Fatalf("zero request is %d bytes (%x), want mask + kind", len(got), got)
	}
	req := msg.Request{Kind: msg.KindNext, Tuples: []msg.Representative{{}}, Point: geom.Point{1}}
	if err := DecodeRequest(AppendRequest(nil, &msg.Request{}), &req); err != nil || !reflect.DeepEqual(req, msg.Request{}) {
		t.Fatalf("zero request decoded to %+v, %v", req, err)
	}
	for _, in := range []*msg.Response{nil, {}} {
		enc := AppendResponse(nil, in, nil)
		if len(enc) != 3 {
			t.Fatalf("zero response is %d bytes (%x), want status + mask", len(enc), enc)
		}
		resp := msg.Response{Pruned: 9, Status: &msg.SiteStatus{ID: 1}}
		if err := DecodeResponse(enc, &resp); err != nil || !reflect.DeepEqual(resp, msg.Response{}) {
			t.Fatalf("zero response decoded to %+v, %v", resp, err)
		}
	}
}

func TestWireErrorResponse(t *testing.T) {
	enc := AppendResponse(nil, &msg.Response{Pruned: 3}, errors.New("site exploded"))
	var resp msg.Response
	err := DecodeResponse(enc, &resp)
	if err == nil || err.Error() != "site exploded" || errors.Is(err, ErrWire) {
		t.Fatalf("error response decoded to %v, want the handler's text", err)
	}
	if !reflect.DeepEqual(resp, msg.Response{}) {
		t.Fatalf("error response left fields behind: %+v", resp)
	}
}

// sampleMessages returns request/response pairs shaped like the protocol's
// real traffic, one per kind that matters to a query or an update.
func sampleMessages() (reqs []msg.Request, resps []msg.Response) {
	tu := func(id uncertain.TupleID) uncertain.Tuple {
		return uncertain.Tuple{ID: id, Point: geom.Point{0.125, 0.75, 0.4375}, Prob: 0.8125}
	}
	rep := func(id uncertain.TupleID) msg.Representative {
		return msg.Representative{Tuple: tu(id), LocalProb: 0.412}
	}
	base := msg.Request{Seq: 17, Client: 0xC0FFEE0DDBA11, Session: 0x9E3779B97F4A7C15}
	with := func(f func(*msg.Request)) msg.Request { r := base; f(&r); return r }
	reqs = []msg.Request{
		with(func(r *msg.Request) {
			r.Kind = msg.KindInit
			r.Query = msg.Query{Threshold: 0.3, Dims: []int{0, 2}}
			r.Timed = true
		}),
		with(func(r *msg.Request) {
			r.Kind = msg.KindInit
			r.Query = msg.Query{Threshold: 0.2}
			r.Tuples = []msg.Representative{rep(21), rep(22)}
			r.RemoveIDs = []uncertain.TupleID{23}
		}),
		with(func(r *msg.Request) { r.Kind = msg.KindNext }),
		with(func(r *msg.Request) {
			r.Kind = msg.KindEvaluate
			r.Feed = msg.Feedback{Tuple: tu(4711), HomeLocalProb: 0.412}
		}),
		with(func(r *msg.Request) {
			r.Kind = msg.KindEvaluate
			r.Feed = msg.Feedback{Tuple: tu(4712), HomeLocalProb: 0.412}
			r.Refill = true
		}),
		with(func(r *msg.Request) { r.Kind = msg.KindCandidates; r.Feed = msg.Feedback{Tuple: tu(12)} }),
		with(func(r *msg.Request) {
			r.Kind = msg.KindReplicate
			r.Tuples = []msg.Representative{rep(5), rep(6)}
			r.RemoveIDs = []uncertain.TupleID{9, 10, 11}
		}),
		with(func(r *msg.Request) { r.Kind = msg.KindInsert; r.Tuple = tu(99) }),
		with(func(r *msg.Request) { r.Kind = msg.KindDelete; r.ID = 99; r.Point = geom.Point{0.125, 0.75, 0.4375} }),
		with(func(r *msg.Request) { r.Kind = msg.KindEndQuery }),
		{Kind: msg.KindStatus},
		// Maintenance traffic: a batched, sessionless Evaluate and a
		// delete that answers its own promotion candidates.
		{Kind: msg.KindEvaluate, Seq: 18, Query: msg.Query{Threshold: 0.3}, Tuples: []msg.Representative{rep(40), rep(41)}},
		{Kind: msg.KindDelete, Seq: 19, ID: 99, Point: geom.Point{0.125, 0.75, 0.4375}, Query: msg.Query{Threshold: 0.3}},
	}
	resps = []msg.Response{
		{Rep: rep(1), ServiceNS: 48_213},
		{Rep: rep(2)},
		{Exhausted: true},
		{CrossProb: 0.731, Pruned: 1, SessionPruned: 17},
		{CrossProb: 0.5, SessionPruned: 17, Rep: rep(13)}, // an evaluate's factor and its refill
		{Tuples: []msg.Representative{rep(3), rep(4), rep(5)}},
		{},
		{Hopeless: true},
		{Rep: rep(6), Hopeless: true}, // an insert the replica vetoes
		{Tuples: []msg.Representative{{Tuple: tu(7)}, {Tuple: tu(8)}}}, // ship-all: no local probabilities
		{Status: &msg.SiteStatus{ID: 2, Tuples: 1000, TreeHeight: 3, RequestsTotal: 12345, LatencyP99Ms: 1.5, MuxWorkerLimit: 32}},
		{CrossProbs: []float64{0.731, 1, 0.0625}}, // a batched evaluate's factors
	}
	return reqs, resps
}

func TestWireSampleMessagesRoundTrip(t *testing.T) {
	reqs, resps := sampleMessages()
	for i := range reqs {
		var got msg.Request
		if err := DecodeRequest(AppendRequest(nil, &reqs[i]), &got); err != nil || !reflect.DeepEqual(got, reqs[i]) {
			t.Errorf("request %d (%v): got %+v, %v", i, reqs[i].Kind, got, err)
		}
	}
	for i := range resps {
		var got msg.Response
		if err := DecodeResponse(AppendResponse(nil, &resps[i], nil), &got); err != nil || !reflect.DeepEqual(got, resps[i]) {
			t.Errorf("response %d: got %+v, %v", i, got, err)
		}
	}
}

// Every proper prefix of a message, and the message plus one byte, is
// rejected as ErrWire.
func TestWireTruncationAndTrailingBytes(t *testing.T) {
	next := 0
	var req msg.Request
	fillNonZero(t, reflect.ValueOf(&req).Elem(), &next)
	var resp msg.Response
	fillNonZero(t, reflect.ValueOf(&resp).Elem(), &next)
	reqs, resps := sampleMessages()
	reqs, resps = append(reqs, req), append(resps, resp)

	for i := range reqs {
		enc := AppendRequest(nil, &reqs[i])
		var got msg.Request
		for n := 0; n < len(enc); n++ {
			if err := DecodeRequest(enc[:n], &got); !errors.Is(err, ErrWire) {
				t.Fatalf("request %d cut to %d of %d bytes: %v", i, n, len(enc), err)
			}
		}
		if err := DecodeRequest(append(enc, 0), &got); !errors.Is(err, ErrWire) {
			t.Fatalf("request %d with a trailing byte: %v", i, err)
		}
	}
	for i := range resps {
		enc := AppendResponse(nil, &resps[i], nil)
		var got msg.Response
		for n := 0; n < len(enc); n++ {
			if err := DecodeResponse(enc[:n], &got); !errors.Is(err, ErrWire) {
				t.Fatalf("response %d cut to %d of %d bytes: %v", i, n, len(enc), err)
			}
		}
		if err := DecodeResponse(append(enc, 0), &got); !errors.Is(err, ErrWire) {
			t.Fatalf("response %d with a trailing byte: %v", i, err)
		}
	}
}

// A count the remaining bytes cannot hold is rejected before anything is
// allocated for it; so are mask bits and status bytes this build does not
// know.
func TestWireHostileCounts(t *testing.T) {
	huge := binary.AppendUvarint(nil, 1<<40)
	// Mask bits are given by number, as docs/TRANSPORT.md tabulates them.
	request := func(bit uint, body ...byte) []byte {
		return append(binary.AppendVarint(binary.LittleEndian.AppendUint16(nil, 1<<bit), int64(msg.KindNext)), body...)
	}
	response := func(bit uint, body ...byte) []byte {
		return append(binary.LittleEndian.AppendUint16([]byte{statusOK}, 1<<bit), body...)
	}
	tuplePrefix := []byte{1} // a tuple id, then the point count follows
	for name, data := range map[string][]byte{
		"point":          request(8, huge...),
		"feed point":     request(3, append(tuplePrefix, huge...)...),
		"query dims":     request(4, append(make([]byte, 9), huge...)...),
		"tuples":         request(9, huge...),
		"remove ids":     request(10, huge...),
		"retired mask":   request(11),         // RemoveIDs before the renumbering
		"retired mask 5": request(5, 1, 2, 1), // the trace context of generation 6
		"unknown mask":   request(14),
	} {
		var req msg.Request
		if err := DecodeRequest(data, &req); !errors.Is(err, ErrWire) {
			t.Errorf("request with hostile %s: %v", name, err)
		}
	}
	for name, data := range map[string][]byte{
		"rep point":       response(0, append(tuplePrefix, huge...)...),
		"tuples":          response(5, huge...),
		"retired mask 6":  response(6, 1, 0), // the span blob of generation 6
		"status":          response(8, huge...),
		"status json":     response(8, 3, '{', '"', 'x'),
		"cross probs":     response(9, huge...),
		"cross prob bits": response(9, append([]byte{2}, make([]byte, 15)...)...), // 8 bytes a factor
		"retired mask 10": response(10, 2, '{', '}'),                              // Status before the renumbering
		"unknown mask":    response(12),
		"unknown status":  {7},
	} {
		var resp msg.Response
		if err := DecodeResponse(data, &resp); !errors.Is(err, ErrWire) {
			t.Errorf("response with hostile %s: %v", name, err)
		}
	}
}

// Refill rides request mask bit 13 alone: no payload byte, and nothing
// else of the request moves.
func TestWireRefillBit(t *testing.T) {
	req := msg.Request{Kind: msg.KindEvaluate, Session: 7,
		Feed: msg.Feedback{Tuple: uncertain.Tuple{ID: 3, Point: geom.Point{0.5}, Prob: 0.5}, HomeLocalProb: 0.25}}
	plain := AppendRequest(nil, &req)
	req.Refill = true
	enc := AppendRequest(nil, &req)
	if mask := binary.LittleEndian.Uint16(enc); mask != binary.LittleEndian.Uint16(plain)|1<<13 || !bytes.Equal(enc[2:], plain[2:]) {
		t.Fatalf("refill encoded as %x, want %x with mask bit 13 set", enc, plain)
	}
	var got msg.Request
	if err := DecodeRequest(enc, &got); err != nil || !reflect.DeepEqual(got, req) {
		t.Fatalf("decoded %+v, %v; want %+v", got, err, req)
	}
	if err := DecodeRequest(plain, &got); err != nil || got.Refill {
		t.Fatalf("a request without the bit decoded to refill=%v, %v", got.Refill, err)
	}
}

// A generation-8 site would ignore the known answer a resumed Init
// carries and ship every known member again. Neither side of a connection
// accepts its hello.
func TestWireRefusesGenerationEight(t *testing.T) { refusesGeneration(t, 8) }

// A generation-7 coordinator never asks for a refill inside an evaluate,
// and a generation-7 site would refuse this build's as an unknown bit.
// Neither side of a connection accepts its hello.
func TestWireRefusesGenerationSeven(t *testing.T) { refusesGeneration(t, 7) }

// A generation-4 peer would read a batched Evaluate as one empty feedback
// tuple and answer a factor of 1.0 — every candidate promoted. Neither side
// of a connection accepts its hello.
func TestWireRefusesGenerationFour(t *testing.T) { refusesGeneration(t, 4) }

// A generation-5 coordinator would open a telemetry subscription that this
// build's sites ignore, and wait on pushes that never come. Neither side of
// a connection accepts its hello.
func TestWireRefusesGenerationFive(t *testing.T) { refusesGeneration(t, 5) }

// A generation-6 coordinator stamps a trace context in request bit 5,
// which this build's sites refuse as an unknown bit, and reads span blobs
// that never come. Neither side of a connection accepts its hello.
func TestWireRefusesGenerationSix(t *testing.T) { refusesGeneration(t, 6) }

func refusesGeneration(t *testing.T, gen byte) {
	t.Helper()
	old := []byte{codec.MuxMagic[0], codec.MuxMagic[1], codec.MuxMagic[2], codec.MuxMagic[3], gen}
	addr, _ := startMuxServer(t, handlerFunc(sessionEcho))
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.Write(old)
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if n, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("server read after a generation-%d hello = (%d, %v), want EOF", gen, n, err)
	}

	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	go func() {
		if site, err := lis.Accept(); err == nil {
			io.ReadFull(site, make([]byte, 5))
			site.Write(old)
			site.Close()
		}
	}()
	if cl, err := DialAuto(lis.Addr().String(), nil); !errors.Is(err, ErrWireVersion) {
		if cl != nil {
			cl.Close()
		}
		t.Fatalf("dialing a generation-%d site: %v, want ErrWireVersion", gen, err)
	}
}

// Encoding into a reused buffer allocates nothing; decoding allocates only
// what the message holds (a Next reply is one Response plus one Point, an
// Evaluate request one Point).
func TestWireAllocs(t *testing.T) {
	reqs, resps := sampleMessages()
	evaluate, nextReply, evaluateReply := &reqs[2], &resps[1], &resps[3]
	buf := make([]byte, 0, 256)
	if n := testing.AllocsPerRun(200, func() { buf = AppendRequest(buf[:0], evaluate) }); n != 0 {
		t.Errorf("AppendRequest allocates %v per call, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() { buf = AppendResponse(buf[:0], nextReply, nil) }); n != 0 {
		t.Errorf("AppendResponse allocates %v per call, want 0", n)
	}
	encNext := AppendResponse(nil, nextReply, nil)
	if n := testing.AllocsPerRun(200, func() {
		if err := DecodeResponse(encNext, new(msg.Response)); err != nil {
			t.Fatal(err)
		}
	}); n > 2 {
		t.Errorf("decoding a Next reply allocates %v, want <= 2 (Response, Point)", n)
	}
	encEvalReply := AppendResponse(nil, evaluateReply, nil)
	var resp msg.Response
	if n := testing.AllocsPerRun(200, func() {
		if err := DecodeResponse(encEvalReply, &resp); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("decoding an Evaluate reply in place allocates %v, want 0", n)
	}
	encEval := AppendRequest(nil, evaluate)
	var req msg.Request
	if n := testing.AllocsPerRun(200, func() {
		if err := DecodeRequest(encEval, &req); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Errorf("decoding an Evaluate request allocates %v, want <= 1 (Point)", n)
	}
}

// The fuzz targets feed arbitrary bytes to the decoders: they must never
// panic, and whatever they accept must re-encode to a fixed point (the
// canonical encoding decodes back to itself). Bytes are compared, not
// values, because a NaN coordinate is not DeepEqual to itself.
func FuzzDecodeRequest(f *testing.F) {
	reqs, _ := sampleMessages()
	for i := range reqs {
		f.Add(AppendRequest(nil, &reqs[i]))
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		var req msg.Request
		if err := DecodeRequest(data, &req); err != nil {
			if !errors.Is(err, ErrWire) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		canon := AppendRequest(nil, &req)
		var again msg.Request
		if err := DecodeRequest(canon, &again); err != nil {
			t.Fatalf("canonical encoding rejected: %v", err)
		}
		if got := AppendRequest(nil, &again); !bytes.Equal(got, canon) {
			t.Fatalf("not a fixed point:\n %x\n %x", canon, got)
		}
	})
}

func FuzzDecodeResponse(f *testing.F) {
	_, resps := sampleMessages()
	for i := range resps {
		f.Add(AppendResponse(nil, &resps[i], nil))
	}
	f.Add(AppendResponse(nil, nil, errors.New("site exploded")))
	f.Add([]byte{})
	f.Add([]byte{statusOK, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		var resp msg.Response
		if err := DecodeResponse(data, &resp); err != nil {
			return // malformed, or a well-formed error response
		}
		canon := AppendResponse(nil, &resp, nil)
		var again msg.Response
		if err := DecodeResponse(canon, &again); err != nil {
			t.Fatalf("canonical encoding rejected: %v", err)
		}
		if got := AppendResponse(nil, &again, nil); !bytes.Equal(got, canon) {
			t.Fatalf("not a fixed point:\n %x\n %x", canon, got)
		}
	})
}

// BenchmarkWireRoundTrip is the encode/decode rung of the cost ladder: one
// request and its reply through the codec and back, no sockets.
func BenchmarkWireRoundTrip(b *testing.B) {
	reqs, resps := sampleMessages()
	for _, c := range []struct {
		name string
		req  *msg.Request
		resp *msg.Response
	}{
		{"evaluate", &reqs[2], &resps[3]},
		{"next", &reqs[1], &resps[1]},
		{"candidates", &reqs[3], &resps[4]},
	} {
		b.Run(c.name, func(b *testing.B) {
			var buf []byte
			var req msg.Request
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buf = AppendRequest(buf[:0], c.req)
				n := len(buf)
				if err := DecodeRequest(buf, &req); err != nil {
					b.Fatal(err)
				}
				buf = AppendResponse(buf[:0], c.resp, nil)
				if err := DecodeResponse(buf, new(msg.Response)); err != nil {
					b.Fatal(err)
				}
				b.SetBytes(int64(n + len(buf)))
			}
		})
	}
}
