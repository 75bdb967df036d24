package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"reflect"
	"runtime"
	"testing"
)

// The codec battery: every message round-trips exactly (including
// zero-length and typed-edge payloads), Size* predicts encoded sizes to
// the byte, request ids echo through framing untouched, and every
// accepted payload is canonical — decode∘encode is the identity on it
// (the fuzz harness pins that for hostile inputs).

func frame(t *testing.T, b []byte) (MsgType, uint32, []byte) {
	t.Helper()
	mt, reqid, payload, err := ReadFrame(bytes.NewReader(b))
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	return mt, reqid, payload
}

func expandArgsCases() []*ExpandArgs {
	return []*ExpandArgs{
		{},
		{Batch: 7, Ver: 3, Level: 0, Dim: 12, Verts: []int32{0, 5, 9}},
		{Batch: ^uint64(0), Ver: 1, Level: 2, Dim: 1, Verts: []int32{2147483647, -1}},
		{Level: -3, Dim: -7}, // negatives must survive so validation can reject them
	}
}

func TestExpandArgsRoundTrip(t *testing.T) {
	for i, a := range expandArgsCases() {
		id := uint32(i * 1000003)
		b := AppendExpandArgs(nil, id, a)
		if len(b) != SizeExpandArgs(a) {
			t.Fatalf("SizeExpandArgs=%d, encoded %d", SizeExpandArgs(a), len(b))
		}
		mt, reqid, payload := frame(t, b)
		if mt != MsgExpand {
			t.Fatalf("type %v", mt)
		}
		if reqid != id {
			t.Fatalf("reqid %d echoed as %d", id, reqid)
		}
		got, err := DecodeExpandArgs(payload)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !reflect.DeepEqual(got, a) {
			t.Fatalf("round trip %+v != %+v", got, a)
		}
	}
}

func expandReplyCases() []*ExpandReply {
	return []*ExpandReply{
		{},
		{Hit: []bool{true, false}, Rows: []float32{1, -2.5, float32(math.Inf(1)), 0}},
		{
			Hit:  []bool{false, false, true},
			Rows: []float32{math.Float32frombits(0x7fc00001)}, // NaN payload bits must survive
			Srcs: [][]int32{{1, 2}, nil, {9}},
		},
	}
}

func TestExpandReplyRoundTrip(t *testing.T) {
	for _, r := range expandReplyCases() {
		b := AppendExpandReply(nil, 42, r)
		if len(b) != SizeExpandReply(r) {
			t.Fatalf("SizeExpandReply=%d, encoded %d", SizeExpandReply(r), len(b))
		}
		mt, reqid, payload := frame(t, b)
		if mt != MsgExpandReply {
			t.Fatalf("type %v", mt)
		}
		if reqid != 42 {
			t.Fatalf("reqid 42 echoed as %d", reqid)
		}
		got, err := DecodeExpandReply(payload)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		// Compare bitwise: NaN != NaN under DeepEqual's float semantics is
		// fine (DeepEqual on float32 NaN returns false), so compare bits.
		if len(got.Rows) != len(r.Rows) {
			t.Fatalf("rows %d != %d", len(got.Rows), len(r.Rows))
		}
		for i := range got.Rows {
			if math.Float32bits(got.Rows[i]) != math.Float32bits(r.Rows[i]) {
				t.Fatalf("row bits %d: %08x != %08x", i, math.Float32bits(got.Rows[i]), math.Float32bits(r.Rows[i]))
			}
		}
		if !reflect.DeepEqual(got.Hit, r.Hit) || !reflect.DeepEqual(got.Srcs, r.Srcs) {
			t.Fatalf("round trip %+v != %+v", got, r)
		}
	}
}

func TestComputeRoundTrip(t *testing.T) {
	args := []*ComputeArgs{
		{},
		{
			Batch: 11, Ver: 2, Level: 1, InDim: 8, OutDim: 4,
			Verts: []int32{3, 7}, In: []int32{1, 3, 7, 9},
			Rows: []float32{0.5, -1, 2, 3, 4, 5, 6, 7},
		},
	}
	for _, a := range args {
		b := AppendComputeArgs(nil, 7, a)
		if len(b) != SizeComputeArgs(a) {
			t.Fatalf("SizeComputeArgs=%d, encoded %d", SizeComputeArgs(a), len(b))
		}
		mt, reqid, payload := frame(t, b)
		if mt != MsgCompute {
			t.Fatalf("type %v", mt)
		}
		if reqid != 7 {
			t.Fatalf("reqid 7 echoed as %d", reqid)
		}
		got, err := DecodeComputeArgs(payload)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !reflect.DeepEqual(got, a) {
			t.Fatalf("round trip %+v != %+v", got, a)
		}
	}
	reps := []*ComputeReply{{}, {Rows: []float32{1, 2, -3}}}
	for _, r := range reps {
		b := AppendComputeReply(nil, ^uint32(0), r)
		if len(b) != SizeComputeReply(r) {
			t.Fatalf("SizeComputeReply=%d, encoded %d", SizeComputeReply(r), len(b))
		}
		mt, reqid, payload := frame(t, b)
		if mt != MsgComputeReply {
			t.Fatalf("type %v", mt)
		}
		if reqid != ^uint32(0) {
			t.Fatalf("max reqid echoed as %d", reqid)
		}
		got, err := DecodeComputeReply(payload)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !reflect.DeepEqual(got, r) {
			t.Fatalf("round trip %+v != %+v", got, r)
		}
	}
}

func TestHelloRoundTrip(t *testing.T) {
	hs := []*Hello{
		{Proto: ProtoVersion},
		{
			Proto: ProtoVersion, ShardID: 1, Shards: 4, Replica: 1, Replicas: 2,
			Lo: 100, Hi: 250,
			NumVertices: 423, NumEdges: 5912, NumTypes: 8,
			InDim: 128, Hidden: 16, OutDim: 40, Layers: 2,
			Fanouts: []int32{4, 4}, Seed: 9, ParamSum: 0xdeadbeefcafef00d,
			Kind: "RGCN",
			Plan: []byte(`{"version":1}`),
		},
	}
	for _, h := range hs {
		b := AppendHello(nil, h)
		mt, reqid, payload := frame(t, b)
		if mt != MsgHello {
			t.Fatalf("type %v", mt)
		}
		if reqid != 0 {
			t.Fatalf("handshake frames must use reqid 0, got %d", reqid)
		}
		got, err := DecodeHello(payload)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !reflect.DeepEqual(got, h) {
			t.Fatalf("round trip %+v != %+v", got, h)
		}
	}
}

func TestErrorRoundTrip(t *testing.T) {
	for _, msg := range []string{"", "shard 3: vertex 9 outside owned range [0,5)"} {
		mt, reqid, payload := frame(t, AppendError(nil, 17, msg))
		if mt != MsgError {
			t.Fatalf("type %v", mt)
		}
		if reqid != 17 {
			t.Fatalf("reqid 17 echoed as %d", reqid)
		}
		if got := DecodeError(payload); got != msg {
			t.Fatalf("round trip %q != %q", got, msg)
		}
	}
}

func TestStrictDecoding(t *testing.T) {
	good := AppendExpandArgs(nil, 1, &ExpandArgs{Dim: 4, Verts: []int32{1}})
	payload := good[headerLen:]

	// Truncation anywhere must fail, never panic or mis-parse.
	for i := 0; i < len(payload); i++ {
		if _, err := DecodeExpandArgs(payload[:i]); err == nil {
			t.Fatalf("truncated to %d bytes decoded", i)
		}
	}
	// Trailing garbage is rejected.
	if _, err := DecodeExpandArgs(append(append([]byte(nil), payload...), 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	// Non-0/1 bool bytes are rejected (canonical form).
	rep := AppendExpandReply(nil, 1, &ExpandReply{Hit: []bool{true}})
	bad := append([]byte(nil), rep[headerLen:]...)
	bad[4] = 2 // the hit byte after the count prefix
	if _, err := DecodeExpandReply(bad); err == nil {
		t.Fatal("bool byte 2 accepted")
	}
	// A hostile element count cannot drive a huge allocation: the count
	// is checked against the remaining bytes before any make().
	hostile := []byte{0xff, 0xff, 0xff, 0x7f}
	if _, err := DecodeComputeReply(hostile); err == nil {
		t.Fatal("hostile count accepted")
	}
}

// TestReadFrameRejectsHostileHeaders pins the pre-allocation checks on
// the frame header: oversize lengths, and lengths too short to hold the
// type byte plus request id (0..4), are protocol violations rejected
// before any payload buffer is made — a hostile reqid/length combination
// can never drive an allocation or a mis-framed read. A legal length is
// allocated for as its bytes arrive: a header claiming MaxFrame and then
// nothing costs the reader under 8 MiB, not the 256 MiB it claims, and
// reads as a truncated frame; a frame longer than the first allocation
// arrives whole through the grown buffer, and one cut short inside a
// later allocation is truncated too.
func TestReadFrameRejectsHostileHeaders(t *testing.T) {
	var hdr []byte
	hdr = append(hdr, 0xff, 0xff, 0xff, 0xff) // length way past MaxFrame
	if _, _, _, err := ReadFrame(bytes.NewReader(hdr)); err == nil {
		t.Fatal("oversize frame accepted")
	}
	// Every length that cannot hold [u8 type][u32 reqid] is rejected from
	// the prefix alone.
	for n := uint32(0); n < 5; n++ {
		short := binary.LittleEndian.AppendUint32(nil, n)
		short = append(short, make([]byte, n)...)
		if _, _, _, err := ReadFrame(bytes.NewReader(short)); err == nil {
			t.Fatalf("frame with %d-byte body accepted (cannot hold type+reqid)", n)
		}
	}
	// Exactly type+reqid (empty payload) is legal framing.
	ok := AppendHelloOK(nil)
	if mt, reqid, payload, err := ReadFrame(bytes.NewReader(ok)); err != nil || mt != MsgHelloOK || reqid != 0 || len(payload) != 0 {
		t.Fatalf("HelloOK frame: type=%v reqid=%d payload=%d err=%v", mt, reqid, len(payload), err)
	}

	hdr = binary.LittleEndian.AppendUint32(nil, MaxFrame)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, _, err := ReadFrame(bytes.NewReader(hdr))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("MaxFrame header then EOF: err = %v, want io.ErrUnexpectedEOF", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 8<<20 {
		t.Fatalf("MaxFrame header then EOF allocated %d bytes", grew)
	}
	payload := make([]byte, 2*frameChunk+12345)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	b := binary.LittleEndian.AppendUint32(nil, uint32(5+len(payload)))
	b = append(b, byte(MsgComputeReply))
	b = binary.LittleEndian.AppendUint32(b, 42)
	b = append(b, payload...)
	mt, reqid, got, err := ReadFrame(bytes.NewReader(b))
	if err != nil || mt != MsgComputeReply || reqid != 42 || !bytes.Equal(got, payload) {
		t.Fatalf("%d-byte frame: type=%v reqid=%d payload equal=%v err=%v", len(b), mt, reqid, bytes.Equal(got, payload), err)
	}
	if _, _, _, err := ReadFrame(bytes.NewReader(b[:len(b)-1])); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("frame cut one byte short: err = %v, want io.ErrUnexpectedEOF", err)
	}
}

// TestFrameReqidEcho pins the wire position of the request id: bytes
// [5,9) of every frame, little-endian, independent of message type — the
// demux on both ends routes on exactly these bytes.
func TestFrameReqidEcho(t *testing.T) {
	frames := [][]byte{
		AppendExpandArgs(nil, 0xdeadbeef, &ExpandArgs{Dim: 1}),
		AppendExpandReply(nil, 0xdeadbeef, &ExpandReply{}),
		AppendComputeArgs(nil, 0xdeadbeef, &ComputeArgs{}),
		AppendComputeReply(nil, 0xdeadbeef, &ComputeReply{}),
		AppendError(nil, 0xdeadbeef, "boom"),
	}
	for i, b := range frames {
		if got := binary.LittleEndian.Uint32(b[5:9]); got != 0xdeadbeef {
			t.Fatalf("frame %d: reqid bytes %08x, want deadbeef", i, got)
		}
		_, reqid, _, err := ReadFrame(bytes.NewReader(b))
		if err != nil || reqid != 0xdeadbeef {
			t.Fatalf("frame %d: reqid %08x err %v", i, reqid, err)
		}
	}
}

// FuzzDecode pins the canonical-form property on the tagged framing: any
// payload a decoder accepts must re-encode (under the same reqid) to
// exactly the frame that was decoded — the reqid echoes untouched and
// the payload is canonical. This rules out silent truncation,
// non-canonical booleans, and any length/content disagreement an
// attacker could smuggle through the codec.
func FuzzDecode(f *testing.F) {
	f.Add(byte(MsgExpand), uint32(1), AppendExpandArgs(nil, 1, &ExpandArgs{Batch: 1, Dim: 4, Verts: []int32{1, 2}})[headerLen:])
	f.Add(byte(MsgExpandReply), uint32(7), AppendExpandReply(nil, 7, &ExpandReply{Hit: []bool{true, false}, Rows: []float32{1, 2}, Srcs: [][]int32{{3}, nil}})[headerLen:])
	f.Add(byte(MsgCompute), ^uint32(0), AppendComputeArgs(nil, ^uint32(0), &ComputeArgs{Level: 1, InDim: 2, OutDim: 2, Verts: []int32{0}, In: []int32{0, 1}, Rows: []float32{1, 2, 3, 4}})[headerLen:])
	f.Add(byte(MsgComputeReply), uint32(0), AppendComputeReply(nil, 0, &ComputeReply{Rows: []float32{5}})[headerLen:])
	f.Add(byte(MsgHello), uint32(0), AppendHello(nil, &Hello{Proto: ProtoVersion, Shards: 2, Replicas: 2, Fanouts: []int32{4}, Kind: "SAGE", Plan: []byte("{}")})[headerLen:])
	f.Add(byte(MsgError), uint32(3), AppendError(nil, 3, "x")[headerLen:])
	f.Fuzz(func(t *testing.T, kind byte, reqid uint32, payload []byte) {
		var reencoded []byte
		switch MsgType(kind) {
		case MsgExpand:
			a, err := DecodeExpandArgs(payload)
			if err != nil {
				return
			}
			reencoded = AppendExpandArgs(nil, reqid, a)
		case MsgExpandReply:
			r, err := DecodeExpandReply(payload)
			if err != nil {
				return
			}
			reencoded = AppendExpandReply(nil, reqid, r)
		case MsgCompute:
			a, err := DecodeComputeArgs(payload)
			if err != nil {
				return
			}
			reencoded = AppendComputeArgs(nil, reqid, a)
		case MsgComputeReply:
			r, err := DecodeComputeReply(payload)
			if err != nil {
				return
			}
			reencoded = AppendComputeReply(nil, reqid, r)
		case MsgHello:
			h, err := DecodeHello(payload)
			if err != nil {
				return
			}
			reencoded = AppendHello(nil, h)
		case MsgError:
			// DecodeError is best-effort by design; only canonical error
			// payloads participate in the identity check.
			r := reader{p: payload}
			s := r.str()
			if r.done() != nil {
				return
			}
			reencoded = AppendError(nil, reqid, s)
		default:
			return
		}
		if !bytes.Equal(reencoded[headerLen:], payload) {
			t.Fatalf("accepted payload is not canonical:\n in  %x\n out %x", payload, reencoded[headerLen:])
		}
		// The frame's reqid bytes must be exactly the reqid passed in —
		// except handshake frames, which pin reqid 0 by construction.
		mt, gotID, gotPayload, err := ReadFrame(bytes.NewReader(reencoded))
		if err != nil {
			t.Fatalf("re-encoded frame unreadable: %v", err)
		}
		wantID := reqid
		if MsgType(kind) == MsgHello {
			wantID = 0
		}
		if mt != MsgType(kind) || gotID != wantID || !bytes.Equal(gotPayload, payload) {
			t.Fatalf("frame round trip: type %v reqid %d, want type %v reqid %d", mt, gotID, MsgType(kind), wantID)
		}
	})
}
