// Package wire is the sharded tier's network protocol: a length-prefixed
// binary codec for the router↔shard RPC messages plus the fleet-join
// handshake. Everything on the wire is flat little-endian int32/float32
// payloads encoded by hand — no reflection, no per-field allocation on
// the encode path — so encoded sizes are exact, cheap to compute without
// encoding (the router's byte accounting uses the Size functions), and
// float rows round-trip bit-for-bit, which is what keeps cross-process
// logits bitwise-identical to single-node serving.
//
// Framing: every message is [u32 length][u8 type][u32 reqid][payload],
// where length covers the type byte, the request id and the payload.
// The reqid tags the frame with the request it belongs to: connections
// are pipelined (many RPCs in flight per stream), replies may arrive
// out of order, and a reply echoes the reqid of the request it answers
// so the client's demux goroutine can match it to the right waiter.
// Handshake frames use reqid 0. Frames above MaxFrame — or too short to
// hold the type byte and reqid — are rejected before any allocation,
// and every decoder is strict — lengths must match the remaining bytes
// exactly, booleans must be 0 or 1, and trailing bytes are an error —
// so any accepted payload re-encodes to the same bytes (the fuzz
// harness pins this canonical-form property).
//
// Versioning rides in the Hello handshake, not per frame: the router
// opens every connection with a Hello carrying ProtoVersion plus the
// full fleet configuration (bounds, replica id, sampler seed, plan, a
// hash of the model parameters), and the shard rejects anything
// it cannot serve bitwise-identically. After a HelloOK the stream
// carries tagged requests and replies in any interleaving.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// ProtoVersion is bumped on any incompatible codec or handshake change;
// a shard rejects a Hello whose version it does not speak. Version 2
// added the per-frame request id (pipelined connections) and the
// replica fields in the Hello. Version 3 changed what level 0 means on
// the same frames: an Expand at level 0 is a plain feature-row lookup, and
// a Compute at level 1 carries rows for the halo only (see ComputeArgs),
// so a version-2 peer would mis-size every level-1 request. Version 4
// dropped the Hello's placement field: shard boundaries are the
// edge-quantile split and nothing else. Version 5 dropped its engine
// field: every shard runs the default kernels engine.
const ProtoVersion = 5

// MaxFrame bounds one frame (type byte + reqid + payload). A length
// prefix past it is a protocol violation, rejected before allocating
// anything.
const MaxFrame = 1 << 28

// headerLen is the frame overhead: u32 length + u8 type + u32 reqid.
const headerLen = 9

// minFrame is the least a frame's length prefix can claim: the type
// byte plus the request id. Anything shorter is hostile framing,
// rejected before any allocation.
const minFrame = 5

// MsgType tags one frame.
type MsgType byte

const (
	// MsgHello is the router→shard fleet-join handshake; it must be the
	// first frame on every connection.
	MsgHello MsgType = 1 + iota
	// MsgHelloOK accepts a Hello (empty payload).
	MsgHelloOK
	// MsgError carries a shard-side error string, both for a rejected
	// Hello and for a failed Expand/Compute.
	MsgError
	// MsgExpand / MsgExpandReply carry one Expand RPC.
	MsgExpand
	MsgExpandReply
	// MsgCompute / MsgComputeReply carry one Compute RPC.
	MsgCompute
	MsgComputeReply
)

// String names the message type for protocol errors.
func (t MsgType) String() string {
	switch t {
	case MsgHello:
		return "Hello"
	case MsgHelloOK:
		return "HelloOK"
	case MsgError:
		return "Error"
	case MsgExpand:
		return "Expand"
	case MsgExpandReply:
		return "ExpandReply"
	case MsgCompute:
		return "Compute"
	case MsgComputeReply:
		return "ComputeReply"
	}
	return fmt.Sprintf("MsgType(%d)", byte(t))
}

// Decode errors. Transport code treats them as protocol violations (the
// peer is broken, not slow), distinct from I/O errors.
var (
	ErrTruncated = errors.New("wire: truncated payload")
	ErrTrailing  = errors.New("wire: trailing bytes after payload")
	ErrOversize  = errors.New("wire: frame exceeds MaxFrame")
)

// ExpandArgs asks a shard to resolve one level's owned vertex span:
// which rows are cached (returned inline), and what the deterministic
// sampler's in-frontier is for the rest. At level 0 it asks for the
// vertices' feature rows; the router sends that only for a halo — ids some
// other shard's level-1 block reads.
type ExpandArgs struct {
	Batch uint64 // trace id, threads obs spans through shard compute
	Ver   uint64 // model version the caller's batch is coherent at
	Level int    // 0 = input features, L = logits
	Dim   int    // row width at this level
	Verts []int32
}

// ExpandReply carries, per requested vertex: a hit flag plus the cached
// row, or the sampled source ids of the miss. Rows is flat
// [len(Verts)×Dim]; only hit rows are meaningful. Level 0 has no hit
// semantics — a feature row is not cached anywhere, the feature matrix of
// the shard that owns it is where it lives — so its reply is every
// requested row in Rows, with Hit and Srcs empty.
type ExpandReply struct {
	Hit  []bool
	Rows []float32
	Srcs [][]int32
}

// ComputeArgs asks a shard to run layer Level-1 for its owned miss
// targets. In is the ascending deduplicated level-(Level-1) vertex set
// the targets' blocks read (each target plus its sampled sources), and
// Rows their rows, flat [len(In)×InDim]; Verts, the targets, are ascending
// and deduplicated too and every one of them is in In. At Level 1 the
// rows are features, and Rows carries them only for the halo — the ids of
// In outside the shard's owned range, in In's order, flat [halo×InDim]:
// the shard reads the rows it owns out of its own feature matrix, so a
// request is still a pure function of its arguments and any replica can
// serve it. Either length is enforced. Both orderings are
// enforced, not assumed: a vertex's position in In is its local id in the
// block, which fixes every destination's summation order, so the shard
// rejects an In or Verts that is not strictly ascending (or an In id
// outside the graph) instead of computing different numbers from it. The
// shard re-derives each target's sampled slots with the same deterministic
// sampler the expansion used, so edge types and canonical per-target edge
// order come from its own CSR slice rather than riding the wire.
type ComputeArgs struct {
	Batch  uint64
	Ver    uint64
	Level  int
	InDim  int
	OutDim int
	Verts  []int32
	In     []int32
	Rows   []float32
}

// ComputeReply returns the computed rows, flat [len(Verts)×OutDim], with
// the between-layer activation already applied (ReLU below the top
// level), exactly as the single-node forward splices them.
type ComputeReply struct {
	Rows []float32
}

// Hello is the fleet-join handshake: everything a shard daemon must agree
// on before it can serve bitwise-identical rows — its identity and owned
// range in the fleet, the frozen graph/model shape, the deterministic
// sampler parameters, the tuned plan, and a hash of the router's model
// parameters (same checkpoint or no deal).
type Hello struct {
	Proto       uint32
	ShardID     int32
	Shards      int32
	Replica     int32 // replica index within the shard's replica set
	Replicas    int32 // replica count per shard (min 1)
	Lo, Hi      int32 // owned vertex range [Lo, Hi)
	NumVertices int64
	NumEdges    int64
	NumTypes    int32
	InDim       int32
	Hidden      int32
	OutDim      int32
	Layers      int32
	Fanouts     []int32
	Seed        uint64
	ParamSum    uint64 // FNV-1a over the model's parameter bits
	Kind        string // model kind, e.g. "RGCN"
	Plan        []byte // marshaled joint plan (joint.MarshalPlan JSON)
}

// ---------------------------------------------------------------------
// Encoding. Append* functions append one complete frame (header + type +
// reqid + payload) to dst and return the extended slice; Size* return
// exactly the number of bytes the matching Append* would add.

func appendHeader(dst []byte, t MsgType, reqid uint32, payloadLen int) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(payloadLen+minFrame))
	dst = append(dst, byte(t))
	return binary.LittleEndian.AppendUint32(dst, reqid)
}

func appendU64(dst []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(dst, v) }
func appendU32(dst []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(dst, v) }

func appendI32s(dst []byte, v []int32) []byte {
	dst = appendU32(dst, uint32(len(v)))
	for _, x := range v {
		dst = appendU32(dst, uint32(x))
	}
	return dst
}

func appendF32s(dst []byte, v []float32) []byte {
	dst = appendU32(dst, uint32(len(v)))
	for _, x := range v {
		dst = appendU32(dst, math.Float32bits(x))
	}
	return dst
}

func appendBools(dst []byte, v []bool) []byte {
	dst = appendU32(dst, uint32(len(v)))
	for _, x := range v {
		if x {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
	}
	return dst
}

func appendBytes(dst []byte, v []byte) []byte {
	dst = appendU32(dst, uint32(len(v)))
	return append(dst, v...)
}

func appendString(dst []byte, v string) []byte {
	dst = appendU32(dst, uint32(len(v)))
	return append(dst, v...)
}

// SizeExpandArgs is the exact frame size AppendExpandArgs produces.
func SizeExpandArgs(a *ExpandArgs) int {
	return headerLen + 8 + 8 + 4 + 4 + 4 + 4*len(a.Verts)
}

// AppendExpandArgs appends one Expand request frame tagged with reqid.
func AppendExpandArgs(dst []byte, reqid uint32, a *ExpandArgs) []byte {
	dst = appendHeader(dst, MsgExpand, reqid, SizeExpandArgs(a)-headerLen)
	dst = appendU64(dst, a.Batch)
	dst = appendU64(dst, a.Ver)
	dst = appendU32(dst, uint32(int32(a.Level)))
	dst = appendU32(dst, uint32(int32(a.Dim)))
	return appendI32s(dst, a.Verts)
}

// SizeExpandReply is the exact frame size AppendExpandReply produces.
func SizeExpandReply(r *ExpandReply) int {
	n := headerLen + 4 + len(r.Hit) + 4 + 4*len(r.Rows) + 4
	for _, s := range r.Srcs {
		n += 4 + 4*len(s)
	}
	return n
}

// AppendExpandReply appends one Expand reply frame echoing reqid.
func AppendExpandReply(dst []byte, reqid uint32, r *ExpandReply) []byte {
	dst = appendHeader(dst, MsgExpandReply, reqid, SizeExpandReply(r)-headerLen)
	dst = appendBools(dst, r.Hit)
	dst = appendF32s(dst, r.Rows)
	dst = appendU32(dst, uint32(len(r.Srcs)))
	for _, s := range r.Srcs {
		dst = appendI32s(dst, s)
	}
	return dst
}

// SizeComputeArgs is the exact frame size AppendComputeArgs produces.
func SizeComputeArgs(a *ComputeArgs) int {
	return headerLen + 8 + 8 + 4 + 4 + 4 +
		4 + 4*len(a.Verts) + 4 + 4*len(a.In) + 4 + 4*len(a.Rows)
}

// AppendComputeArgs appends one Compute request frame tagged with reqid.
func AppendComputeArgs(dst []byte, reqid uint32, a *ComputeArgs) []byte {
	dst = appendHeader(dst, MsgCompute, reqid, SizeComputeArgs(a)-headerLen)
	dst = appendU64(dst, a.Batch)
	dst = appendU64(dst, a.Ver)
	dst = appendU32(dst, uint32(int32(a.Level)))
	dst = appendU32(dst, uint32(int32(a.InDim)))
	dst = appendU32(dst, uint32(int32(a.OutDim)))
	dst = appendI32s(dst, a.Verts)
	dst = appendI32s(dst, a.In)
	return appendF32s(dst, a.Rows)
}

// SizeComputeReply is the exact frame size AppendComputeReply produces.
func SizeComputeReply(r *ComputeReply) int {
	return headerLen + 4 + 4*len(r.Rows)
}

// AppendComputeReply appends one Compute reply frame echoing reqid.
func AppendComputeReply(dst []byte, reqid uint32, r *ComputeReply) []byte {
	dst = appendHeader(dst, MsgComputeReply, reqid, SizeComputeReply(r)-headerLen)
	return appendF32s(dst, r.Rows)
}

// AppendHello appends one handshake frame (handshakes use reqid 0).
func AppendHello(dst []byte, h *Hello) []byte {
	// 12 u32 fields + 4 u64 fields + 3 length-prefixed variable fields.
	n := 4*12 + 8*4 + 4 + 4*len(h.Fanouts) +
		4 + len(h.Kind) + 4 + len(h.Plan)
	dst = appendHeader(dst, MsgHello, 0, n)
	dst = appendU32(dst, h.Proto)
	dst = appendU32(dst, uint32(h.ShardID))
	dst = appendU32(dst, uint32(h.Shards))
	dst = appendU32(dst, uint32(h.Replica))
	dst = appendU32(dst, uint32(h.Replicas))
	dst = appendU32(dst, uint32(h.Lo))
	dst = appendU32(dst, uint32(h.Hi))
	dst = appendU64(dst, uint64(h.NumVertices))
	dst = appendU64(dst, uint64(h.NumEdges))
	dst = appendU32(dst, uint32(h.NumTypes))
	dst = appendU32(dst, uint32(h.InDim))
	dst = appendU32(dst, uint32(h.Hidden))
	dst = appendU32(dst, uint32(h.OutDim))
	dst = appendU32(dst, uint32(h.Layers))
	dst = appendI32s(dst, h.Fanouts)
	dst = appendU64(dst, h.Seed)
	dst = appendU64(dst, h.ParamSum)
	dst = appendString(dst, h.Kind)
	return appendBytes(dst, h.Plan)
}

// AppendHelloOK appends the empty handshake acceptance frame (reqid 0).
func AppendHelloOK(dst []byte) []byte { return appendHeader(dst, MsgHelloOK, 0, 0) }

// AppendError appends one error frame carrying msg, echoing the reqid of
// the request it fails (0 for handshake errors).
func AppendError(dst []byte, reqid uint32, msg string) []byte {
	dst = appendHeader(dst, MsgError, reqid, 4+len(msg))
	return appendString(dst, msg)
}

// ---------------------------------------------------------------------
// Decoding. Every decoder is strict: exact lengths, 0/1 booleans, no
// trailing bytes — a deserialized request is validated shape-first so a
// malformed peer surfaces as a protocol error, never a panic.

type reader struct {
	p   []byte
	err error
}

func (r *reader) fail() bool { return r.err != nil }

func (r *reader) need(n int) bool {
	if r.err != nil {
		return false
	}
	if len(r.p) < n {
		r.err = ErrTruncated
		return false
	}
	return true
}

func (r *reader) u32() uint32 {
	if !r.need(4) {
		return 0
	}
	v := binary.LittleEndian.Uint32(r.p)
	r.p = r.p[4:]
	return v
}

func (r *reader) u64() uint64 {
	if !r.need(8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(r.p)
	r.p = r.p[8:]
	return v
}

// i32 decodes a sign-preserving 32-bit int (negative values survive the
// round trip so range validation can reject them descriptively).
func (r *reader) i32() int { return int(int32(r.u32())) }

func (r *reader) i32s() []int32 {
	n := int(r.u32())
	if r.fail() || !r.need(4*n) {
		return nil
	}
	if n == 0 {
		return nil
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(r.p[4*i:]))
	}
	r.p = r.p[4*n:]
	return out
}

func (r *reader) f32s() []float32 {
	n := int(r.u32())
	if r.fail() || !r.need(4*n) {
		return nil
	}
	if n == 0 {
		return nil
	}
	out := make([]float32, n)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(r.p[4*i:]))
	}
	r.p = r.p[4*n:]
	return out
}

func (r *reader) bools() []bool {
	n := int(r.u32())
	if r.fail() || !r.need(n) {
		return nil
	}
	if n == 0 {
		return nil
	}
	out := make([]bool, n)
	for i := range out {
		switch r.p[i] {
		case 0:
		case 1:
			out[i] = true
		default:
			r.err = fmt.Errorf("wire: bool byte %d at %d", r.p[i], i)
			return nil
		}
	}
	r.p = r.p[n:]
	return out
}

func (r *reader) bytes() []byte {
	n := int(r.u32())
	if r.fail() || !r.need(n) {
		return nil
	}
	if n == 0 {
		return nil
	}
	out := make([]byte, n)
	copy(out, r.p)
	r.p = r.p[n:]
	return out
}

func (r *reader) str() string {
	n := int(r.u32())
	if r.fail() || !r.need(n) {
		return ""
	}
	s := string(r.p[:n])
	r.p = r.p[n:]
	return s
}

// done rejects trailing bytes — strict framing keeps every accepted
// payload canonical.
func (r *reader) done() error {
	if r.err == nil && len(r.p) > 0 {
		r.err = ErrTrailing
	}
	return r.err
}

// DecodeExpandArgs decodes one Expand request payload.
func DecodeExpandArgs(p []byte) (*ExpandArgs, error) {
	r := reader{p: p}
	a := &ExpandArgs{
		Batch: r.u64(),
		Ver:   r.u64(),
		Level: r.i32(),
		Dim:   r.i32(),
		Verts: r.i32s(),
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return a, nil
}

// DecodeExpandReply decodes one Expand reply payload.
func DecodeExpandReply(p []byte) (*ExpandReply, error) {
	r := reader{p: p}
	rep := &ExpandReply{Hit: r.bools(), Rows: r.f32s()}
	n := int(r.u32())
	if !r.fail() && n > 0 {
		// Each entry needs at least its own length prefix.
		if !r.need(4 * n) {
			return nil, r.err
		}
		rep.Srcs = make([][]int32, n)
		for i := range rep.Srcs {
			rep.Srcs[i] = r.i32s()
		}
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return rep, nil
}

// DecodeComputeArgs decodes one Compute request payload.
func DecodeComputeArgs(p []byte) (*ComputeArgs, error) {
	r := reader{p: p}
	a := &ComputeArgs{
		Batch:  r.u64(),
		Ver:    r.u64(),
		Level:  r.i32(),
		InDim:  r.i32(),
		OutDim: r.i32(),
		Verts:  r.i32s(),
		In:     r.i32s(),
		Rows:   r.f32s(),
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return a, nil
}

// DecodeComputeReply decodes one Compute reply payload.
func DecodeComputeReply(p []byte) (*ComputeReply, error) {
	r := reader{p: p}
	rep := &ComputeReply{Rows: r.f32s()}
	if err := r.done(); err != nil {
		return nil, err
	}
	return rep, nil
}

// DecodeHello decodes one handshake payload. Proto leads the Hello of
// every version and lays out the fields after it, so a payload of another
// version is refused on that field alone: a version-4 Hello still carries
// an engine string, and its peer must hear about the version, not a
// misread field.
func DecodeHello(p []byte) (*Hello, error) {
	if len(p) >= 4 {
		if v := binary.LittleEndian.Uint32(p); v != ProtoVersion {
			return nil, fmt.Errorf("protocol %d, this node speaks %d", v, ProtoVersion)
		}
	}
	r := reader{p: p}
	h := &Hello{
		Proto:       r.u32(),
		ShardID:     int32(r.u32()),
		Shards:      int32(r.u32()),
		Replica:     int32(r.u32()),
		Replicas:    int32(r.u32()),
		Lo:          int32(r.u32()),
		Hi:          int32(r.u32()),
		NumVertices: int64(r.u64()),
		NumEdges:    int64(r.u64()),
		NumTypes:    int32(r.u32()),
		InDim:       int32(r.u32()),
		Hidden:      int32(r.u32()),
		OutDim:      int32(r.u32()),
		Layers:      int32(r.u32()),
		Fanouts:     r.i32s(),
		Seed:        r.u64(),
		ParamSum:    r.u64(),
		Kind:        r.str(),
		Plan:        r.bytes(),
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return h, nil
}

// DecodeError decodes one error payload (best effort: a malformed error
// frame still yields a string describing that).
func DecodeError(p []byte) string {
	r := reader{p: p}
	s := r.str()
	if r.done() != nil {
		return fmt.Sprintf("malformed error frame (%d bytes)", len(p))
	}
	return s
}

// ---------------------------------------------------------------------
// Framing.

// frameChunk bounds what ReadFrame allocates ahead of the bytes that fill
// it: a frame up to this long is read into one buffer of its size, a
// longer one into a buffer that starts at this size and doubles as its
// bytes arrive. A length prefix alone therefore commits the reader to at
// most this much memory, whatever it claims up to MaxFrame.
const frameChunk = 4 << 20

// ReadFrame reads one complete frame, returning its type, request id and
// payload. Hostile length prefixes — oversize, or too short to hold the
// type byte and reqid — are rejected before any allocation, and a legal
// one is allocated for only as its bytes arrive (frameChunk). A stream
// that ends inside a frame is io.ErrUnexpectedEOF.
func ReadFrame(r io.Reader) (MsgType, uint32, []byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n < minFrame {
		return 0, 0, nil, fmt.Errorf("wire: short frame (%d bytes, need at least %d)", n, minFrame)
	}
	if n > MaxFrame {
		return 0, 0, nil, fmt.Errorf("%w: %d bytes", ErrOversize, n)
	}
	buf := make([]byte, min(n, frameChunk))
	for read := 0; ; {
		if _, err := io.ReadFull(r, buf[read:]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return 0, 0, nil, err
		}
		if read = len(buf); read == int(n) {
			break
		}
		grown := make([]byte, min(2*read, int(n)))
		copy(grown, buf)
		buf = grown
	}
	return MsgType(buf[0]), binary.LittleEndian.Uint32(buf[1:]), buf[5:], nil
}
