package shard

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"wisegraph/internal/graph"
	"wisegraph/internal/joint"
	"wisegraph/internal/nn"
	"wisegraph/internal/obs"
	"wisegraph/internal/shard/wire"
	"wisegraph/internal/tensor"
)

// The TCP transport: tcpConn implements Conn over the internal/shard/wire
// protocol against a wisegraph-shard daemon, and Server is the daemon
// side, running decoded frames on its Shard. Each
// connection opens with a Hello carrying the full fleet configuration;
// the daemon is passive and interchangeable — it learns its shard
// identity (including its replica id), owned range, sampler seed and
// tuned plan from the first Hello it accepts, and validates
// everything it can recompute (boundaries, model shape, parameter hash)
// so a misconfigured fleet fails at connect time instead of serving
// subtly different logits.
//
// The transport is PIPELINED: one live connection per endpoint carries
// many concurrent RPCs, each tagged with a request id the reply echoes.
// A per-connection demux goroutine matches reply frames to waiting
// callers; a bounded window caps in-flight requests per connection. A
// per-call timer — not a socket deadline — enforces the RPC timeout, so
// one slow call never poisons the shared stream: the caller gives up,
// the stream stays healthy, and the late reply is dropped by the demux
// when its reqid no longer has a waiter.

// connWindow bounds in-flight RPCs per pipelined connection: enough to
// keep a deep fan-out's expand/compute spans streaming without a
// round-trip between them, small enough that a stalled daemon back-
// pressures the router instead of buffering unboundedly.
const connWindow = 32

// serverWindow bounds concurrently executing handlers per accepted
// connection on the daemon side (requests beyond it queue in the read
// loop, which stops reading — TCP back-pressure does the rest).
const serverWindow = 64

// helloTimeout bounds the daemon's wait for a new connection's Hello, so
// a peer that connects and says nothing cannot pin a goroutine and a
// socket until the daemon exits. It covers the handshake only: an
// admitted connection may idle forever.
const helloTimeout = 10 * time.Second

// ParamSum hashes a model's parameter bits with FNV-1a. Router and
// daemon must arrive at the same sum or the handshake fails: bitwise
// logit parity is impossible without bitwise parameter parity.
func ParamSum(m *nn.Model) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for _, p := range m.Params() {
		for _, x := range p.Value.Data() {
			b := math.Float32bits(x)
			for s := 0; s < 32; s += 8 {
				h ^= uint64(byte(b >> s))
				h *= prime
			}
		}
	}
	return h
}

// TransportError wraps a network-level failure (dial, deadline, broken
// or out-of-sync stream). It marks the attempt retryable: the router's
// ladder redials and re-issues, which is safe because both RPC kinds are
// idempotent. Application errors from the shard arrive as MsgError
// frames and are NOT wrapped — they are deterministic protocol or
// ownership violations and surface immediately.
type TransportError struct {
	Addr    string
	Timeout bool
	Err     error
}

func (e *TransportError) Error() string {
	kind := "transport"
	if e.Timeout {
		kind = "timeout"
	}
	return fmt.Sprintf("shard %s: %s: %v", e.Addr, kind, e.Err)
}

func (e *TransportError) Unwrap() error { return e.Err }

// pipeReply is one demuxed reply frame.
type pipeReply struct {
	t       wire.MsgType
	payload []byte
}

// pipeConn is one live pipelined connection: a shared write path, a
// demux goroutine reading reply frames, and the waiter table matching
// reqids to callers. It fails as a unit — any read/write/framing error
// closes done, wakes every waiter, and the endpoint redials lazily.
type pipeConn struct {
	nc     net.Conn
	window chan struct{} // in-flight slots

	wmu sync.Mutex // serializes frame writes

	mu      sync.Mutex
	waiters map[uint32]chan pipeReply

	failOnce sync.Once
	err      error
	done     chan struct{} // closed after err is set
}

// fail marks the connection dead exactly once: the error is latched,
// done closes (waking every waiter and the window acquirers), and the
// socket closes (unblocking the demux read). Waiter channels are never
// closed and never written by fail — waiters observe done — so no
// Close/redial/demux interleaving can raise a send on a closed channel.
func (pc *pipeConn) fail(err error) {
	pc.failOnce.Do(func() {
		pc.err = err
		close(pc.done)
		pc.nc.Close()
	})
}

// tcpConn is one shard replica's endpoint over TCP: at most one live
// pipelined connection, redialed lazily (under the endpoint lock, so
// concurrent callers after a failure trigger one dial, not a stampede).
type tcpConn struct {
	addr    string
	timeout time.Duration
	hello   []byte // encoded Hello frame, replayed on every dial

	nextID   atomic.Uint32
	inflight atomic.Int64
	maxIF    atomic.Int64 // high-watermark of concurrently in-flight RPCs

	mu     sync.Mutex
	live   *pipeConn
	closed bool
}

// newTCPConn builds the endpoint and performs one eager dial+handshake
// so a bad address or a rejected Hello fails fleet construction, not the
// first request.
func newTCPConn(addr string, h *wire.Hello, timeout time.Duration) (*tcpConn, error) {
	c := &tcpConn{addr: addr, timeout: timeout, hello: wire.AppendHello(nil, h)}
	if _, err := c.conn(); err != nil {
		return nil, err
	}
	return c, nil
}

func (c *tcpConn) terr(err error) error {
	var ne net.Error
	timeout := errors.As(err, &ne) && ne.Timeout()
	return &TransportError{Addr: c.addr, Timeout: timeout, Err: err}
}

// MaxInFlight reports the high-watermark of RPCs that were in flight on
// this endpoint at once — the pipelining acceptance metric.
func (c *tcpConn) MaxInFlight() int64 { return c.maxIF.Load() }

// conn returns the live pipelined connection, dialing one if needed.
func (c *tcpConn) conn() (*pipeConn, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, &TransportError{Addr: c.addr, Err: errors.New("endpoint closed")}
	}
	if pc := c.live; pc != nil {
		select {
		case <-pc.done:
			c.live = nil // fell over since last use; redial below
		default:
			return pc, nil
		}
	}
	pc, err := c.dial()
	if err != nil {
		return nil, err
	}
	c.live = pc
	go c.demux(pc)
	return pc, nil
}

// dial opens a fresh connection and replays the Hello handshake on it.
// A rejected Hello is a permanent error (the daemon cannot serve this
// fleet bitwise-identically); anything network-shaped is a
// TransportError.
func (c *tcpConn) dial() (*pipeConn, error) {
	nc, err := net.DialTimeout("tcp", c.addr, c.timeout)
	if err != nil {
		return nil, c.terr(err)
	}
	nc.SetDeadline(time.Now().Add(c.timeout))
	if _, err := nc.Write(c.hello); err != nil {
		nc.Close()
		return nil, c.terr(err)
	}
	t, _, payload, err := wire.ReadFrame(nc)
	if err != nil {
		nc.Close()
		return nil, c.terr(err)
	}
	switch t {
	case wire.MsgHelloOK:
		nc.SetDeadline(time.Time{})
		return &pipeConn{
			nc:      nc,
			window:  make(chan struct{}, connWindow),
			waiters: make(map[uint32]chan pipeReply),
			done:    make(chan struct{}),
		}, nil
	case wire.MsgError:
		nc.Close()
		return nil, fmt.Errorf("shard %s: hello rejected: %s", c.addr, wire.DecodeError(payload))
	default:
		nc.Close()
		return nil, c.terr(fmt.Errorf("unexpected %v to Hello", t))
	}
}

// demux is the connection's single reader: it matches every reply frame
// to its waiter by reqid. A reqid with no waiter is a reply to a call
// that timed out or was canceled (a hedged loser) — dropped, stream
// intact. Any read error fails the connection as a unit.
func (c *tcpConn) demux(pc *pipeConn) {
	br := bufio.NewReaderSize(pc.nc, 1<<16)
	for {
		t, reqid, payload, err := wire.ReadFrame(br)
		if err != nil {
			pc.fail(c.terr(err))
			c.clearLive(pc)
			return
		}
		pc.mu.Lock()
		w, ok := pc.waiters[reqid]
		delete(pc.waiters, reqid)
		pc.mu.Unlock()
		if ok {
			w <- pipeReply{t: t, payload: payload} // buffered; never blocks
		}
	}
}

// clearLive forgets pc as the endpoint's live connection (the next call
// redials). A newer connection installed meanwhile is left alone.
func (c *tcpConn) clearLive(pc *pipeConn) {
	c.mu.Lock()
	if c.live == pc {
		c.live = nil
	}
	c.mu.Unlock()
}

// close drops the endpoint permanently (the daemon sees EOF and unwinds).
func (c *tcpConn) close() {
	c.mu.Lock()
	c.closed = true
	pc := c.live
	c.live = nil
	c.mu.Unlock()
	if pc != nil {
		pc.fail(errors.New("endpoint closed"))
	}
}

// reqID returns the next nonzero request id (0 is the handshake tag).
func (c *tcpConn) reqID() uint32 {
	for {
		if id := c.nextID.Add(1); id != 0 {
			return id
		}
	}
}

// roundTrip sends one tagged request frame down the pipelined stream and
// waits for its reply, bounded by the in-flight window, the per-call
// timer, and the hedge-cancellation context. encode must append the
// complete frame for the given reqid.
func (c *tcpConn) roundTrip(ctx context.Context, reqid uint32, frame []byte, want wire.MsgType) ([]byte, error) {
	pc, err := c.conn()
	if err != nil {
		return nil, err
	}
	timer := time.NewTimer(c.timeout)
	defer timer.Stop()

	// A window slot bounds in-flight requests on this stream.
	select {
	case pc.window <- struct{}{}:
	case <-pc.done:
		c.clearLive(pc)
		return nil, c.terr(pc.err)
	case <-timer.C:
		return nil, &TransportError{Addr: c.addr, Timeout: true, Err: fmt.Errorf("window full for %v", c.timeout)}
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	n := c.inflight.Add(1)
	for {
		old := c.maxIF.Load()
		if n <= old || c.maxIF.CompareAndSwap(old, n) {
			break
		}
	}
	release := func() {
		c.inflight.Add(-1)
		<-pc.window
	}

	ch := make(chan pipeReply, 1)
	pc.mu.Lock()
	pc.waiters[reqid] = ch
	pc.mu.Unlock()
	deregister := func() {
		pc.mu.Lock()
		delete(pc.waiters, reqid)
		pc.mu.Unlock()
	}

	pc.wmu.Lock()
	pc.nc.SetWriteDeadline(time.Now().Add(c.timeout))
	_, werr := pc.nc.Write(frame)
	pc.wmu.Unlock()
	if werr != nil {
		deregister()
		release()
		pc.fail(c.terr(werr))
		c.clearLive(pc)
		return nil, c.terr(werr)
	}

	select {
	case r := <-ch:
		release()
		switch r.t {
		case want:
			return r.payload, nil
		case wire.MsgError:
			// Application error: the stream is healthy, only this call is.
			return nil, fmt.Errorf("shard %s: %s", c.addr, wire.DecodeError(r.payload))
		default:
			err := fmt.Errorf("unexpected %v, want %v", r.t, want)
			pc.fail(c.terr(err))
			c.clearLive(pc)
			return nil, c.terr(err)
		}
	case <-pc.done:
		deregister()
		release()
		c.clearLive(pc)
		return nil, c.terr(pc.err)
	case <-timer.C:
		// Per-call timeout: give up on THIS call only. The stream stays
		// live; if the reply ever lands, the demux finds no waiter for
		// the reqid and drops it.
		deregister()
		release()
		return nil, &TransportError{Addr: c.addr, Timeout: true, Err: fmt.Errorf("no reply within %v", c.timeout)}
	case <-ctx.Done():
		// Hedged loser: another replica answered first. Free the slot,
		// drop the eventual reply at the demux.
		deregister()
		release()
		return nil, ctx.Err()
	}
}

// Expand implements Conn over the wire.
func (c *tcpConn) Expand(ctx context.Context, args *ExpandArgs) (*ExpandReply, error) {
	reqid := c.reqID()
	p, err := c.roundTrip(ctx, reqid, wire.AppendExpandArgs(make([]byte, 0, wire.SizeExpandArgs(args)), reqid, args), wire.MsgExpandReply)
	if err != nil {
		return nil, err
	}
	rep, err := wire.DecodeExpandReply(p)
	if err != nil {
		return nil, fmt.Errorf("shard %s: bad ExpandReply: %w", c.addr, err)
	}
	return rep, nil
}

// Compute implements Conn over the wire.
func (c *tcpConn) Compute(ctx context.Context, args *ComputeArgs) (*ComputeReply, error) {
	reqid := c.reqID()
	p, err := c.roundTrip(ctx, reqid, wire.AppendComputeArgs(make([]byte, 0, wire.SizeComputeArgs(args)), reqid, args), wire.MsgComputeReply)
	if err != nil {
		return nil, err
	}
	rep, err := wire.DecodeComputeReply(p)
	if err != nil {
		return nil, fmt.Errorf("shard %s: bad ComputeReply: %w", c.addr, err)
	}
	return rep, nil
}

// serverStats is the daemon-side RPC accounting the /metrics endpoint
// exposes: per-kind counts, error count, exact frame bytes both ways,
// and per-kind service latency.
type serverStats struct {
	expands  atomic.Uint64
	computes atomic.Uint64
	errors   atomic.Uint64
	bytesIn  atomic.Uint64
	bytesOut atomic.Uint64
	latExp   obs.Histogram
	latCmp   obs.Histogram
}

// Server is the daemon side of the wire protocol: it owns the loaded
// graph/features/model and lazily builds its Shard from the first Hello
// it accepts — daemons are interchangeable; the router assigns identity
// (shard id AND replica id). Later connections must present a
// byte-identical Hello (same fleet, same identity) or are rejected.
//
// Each accepted connection is served pipelined: the read loop decodes
// frames and hands each request to a bounded pool of handler goroutines;
// replies are written (reqid-tagged) as they finish, so a slow Compute
// never holds up an Expand that arrived behind it.
type Server struct {
	csr    *graph.CSR
	feats  *tensor.Tensor
	ntypes int
	model  *nn.Model
	cfg    NodeConfig // node-local budget: Workers, CacheBudget

	helloWait time.Duration // helloTimeout; a field so its test need not wait that long

	stats serverStats

	mu        sync.Mutex
	helloRaw  []byte // payload of the accepted Hello
	ident     *wire.Hello
	shard     *Shard
	conns     map[net.Conn]struct{}
	listening bool
	closed    bool
	wg        sync.WaitGroup
}

// NewServer builds a daemon-side server over the node's loaded state.
// Fanouts/Seed in cfg are ignored — they arrive in the Hello.
func NewServer(csr *graph.CSR, feats *tensor.Tensor, ntypes int, model *nn.Model, cfg NodeConfig) *Server {
	return &Server{
		csr: csr, feats: feats, ntypes: ntypes, model: model, cfg: cfg,
		helloWait: helloTimeout,
		conns:     make(map[net.Conn]struct{}),
	}
}

// Shard returns the lazily built shard (nil before the first accepted
// Hello).
func (sv *Server) Shard() *Shard {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	return sv.shard
}

// Ident returns the accepted identity (nil before the first Hello).
func (sv *Server) Ident() *wire.Hello {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	return sv.ident
}

// InFlight reports admitted-but-unanswered RPCs (0 before the first
// Hello) — the daemon's half of the drain invariant, printed at SIGTERM.
func (sv *Server) InFlight() int64 {
	if s := sv.Shard(); s != nil {
		return s.InFlight()
	}
	return 0
}

// Serve accepts connections until the listener is closed; each gets its
// own goroutine. It returns nil on a Close-initiated shutdown.
func (sv *Server) Serve(ln net.Listener) error {
	for {
		nc, err := ln.Accept()
		if err != nil {
			sv.mu.Lock()
			closed := sv.closed
			sv.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		sv.mu.Lock()
		if sv.closed {
			sv.mu.Unlock()
			nc.Close()
			return nil
		}
		sv.conns[nc] = struct{}{}
		sv.wg.Add(1)
		sv.mu.Unlock()
		go sv.serveConn(nc)
	}
}

// Close stops serving: marks the server closed, closes every live
// connection (in-flight handlers see a broken write and unwind), waits
// for the handlers, then drains the shard. The caller
// closes the listener.
func (sv *Server) Close() {
	sv.mu.Lock()
	sv.closed = true
	for nc := range sv.conns {
		nc.Close()
	}
	s := sv.shard
	sv.mu.Unlock()
	sv.wg.Wait()
	if s != nil {
		s.Close()
	}
}

func (sv *Server) dropConn(nc net.Conn) {
	sv.mu.Lock()
	delete(sv.conns, nc)
	sv.mu.Unlock()
	nc.Close()
	sv.wg.Done()
}

// serveConn runs one connection: the strict Hello handshake, then a
// pipelined request loop — the reader dispatches each decoded request to
// a bounded handler goroutine and keeps reading; handlers write their
// reqid-tagged reply (serialized by a write mutex) the moment they
// finish, in whatever order that is.
func (sv *Server) serveConn(nc net.Conn) {
	defer sv.dropConn(nc)
	br := bufio.NewReaderSize(nc, 1<<16)
	bw := bufio.NewWriterSize(nc, 1<<16)
	var wmu sync.Mutex
	send := func(frame []byte) bool {
		wmu.Lock()
		defer wmu.Unlock()
		if _, err := bw.Write(frame); err != nil {
			return false
		}
		if bw.Flush() != nil {
			return false
		}
		sv.stats.bytesOut.Add(uint64(len(frame)))
		return true
	}

	nc.SetReadDeadline(time.Now().Add(sv.helloWait))
	t, _, payload, err := wire.ReadFrame(br)
	if err != nil {
		return // a silent or broken peer; nothing to answer
	}
	if t != wire.MsgHello {
		send(wire.AppendError(nil, 0, fmt.Sprintf("first frame is %v, want Hello", t)))
		return
	}
	s, err := sv.admit(payload)
	if err != nil {
		send(wire.AppendError(nil, 0, err.Error()))
		return
	}
	if !send(wire.AppendHelloOK(nil)) {
		return
	}
	nc.SetReadDeadline(time.Time{})

	// Handlers in flight on THIS connection; bounded by the window, and
	// all joined before the connection drops so no handler ever writes to
	// a closed bufio.Writer. They run under a context that ends with the
	// read loop (canceled before the join), so a request still waiting for
	// a worker stops waiting once its peer has hung up.
	sem := make(chan struct{}, serverWindow)
	var hwg sync.WaitGroup
	defer hwg.Wait()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for {
		t, reqid, payload, err := wire.ReadFrame(br)
		if err != nil {
			return // EOF or broken peer; nothing to answer
		}
		sv.stats.bytesIn.Add(uint64(len(payload)) + 9)
		switch t {
		case wire.MsgExpand, wire.MsgCompute:
			sem <- struct{}{}
			hwg.Add(1)
			go func(t wire.MsgType, reqid uint32, payload []byte) {
				defer hwg.Done()
				defer func() { <-sem }()
				send(sv.handle(ctx, s, t, reqid, payload))
			}(t, reqid, payload)
		default:
			send(wire.AppendError(nil, reqid, fmt.Sprintf("unexpected %v", t)))
			return
		}
	}
}

// handle runs one decoded request on the shard and encodes its reply
// frame, echoing the request id (on errors too — the router's demux can
// only route what it can match).
func (sv *Server) handle(ctx context.Context, s *Shard, t wire.MsgType, reqid uint32, payload []byte) []byte {
	t0 := time.Now()
	switch t {
	case wire.MsgExpand:
		args, err := wire.DecodeExpandArgs(payload)
		if err != nil {
			sv.stats.errors.Add(1)
			return wire.AppendError(nil, reqid, fmt.Sprintf("bad ExpandArgs: %v", err))
		}
		rep, err := s.Expand(ctx, args)
		sv.stats.expands.Add(1)
		sv.stats.latExp.Observe(time.Since(t0))
		if err != nil {
			sv.stats.errors.Add(1)
			return wire.AppendError(nil, reqid, err.Error())
		}
		return wire.AppendExpandReply(make([]byte, 0, wire.SizeExpandReply(rep)), reqid, rep)
	default: // wire.MsgCompute — serveConn admits nothing else
		args, err := wire.DecodeComputeArgs(payload)
		if err != nil {
			sv.stats.errors.Add(1)
			return wire.AppendError(nil, reqid, fmt.Sprintf("bad ComputeArgs: %v", err))
		}
		rep, err := s.Compute(ctx, args)
		sv.stats.computes.Add(1)
		sv.stats.latCmp.Observe(time.Since(t0))
		if err != nil {
			sv.stats.errors.Add(1)
			return wire.AppendError(nil, reqid, err.Error())
		}
		return wire.AppendComputeReply(make([]byte, 0, wire.SizeComputeReply(rep)), reqid, rep)
	}
}

// admit validates a Hello payload and returns the node's shard, building
// it on the first accepted handshake. Identity is sticky: every later
// Hello must be byte-identical to the first (the replica id is part of
// the payload, so one daemon cannot serve as two replicas).
func (sv *Server) admit(payload []byte) (*Shard, error) {
	h, err := wire.DecodeHello(payload)
	if err != nil {
		return nil, fmt.Errorf("bad Hello: %v", err)
	}
	sv.mu.Lock()
	defer sv.mu.Unlock()
	if sv.shard != nil {
		if string(payload) != string(sv.helloRaw) {
			return nil, fmt.Errorf("hello differs from the fleet this node already joined (shard %d replica %d)", sv.shard.id, sv.ident.Replica)
		}
		return sv.shard, nil
	}
	if err := sv.validate(h); err != nil {
		return nil, err
	}
	plan, err := joint.UnmarshalPlan(h.Plan)
	if err != nil {
		return nil, fmt.Errorf("bad plan: %v", err)
	}
	if plan.Kind != sv.model.Cfg.Kind {
		return nil, fmt.Errorf("plan is for %v, model is %v", plan.Kind, sv.model.Cfg.Kind)
	}
	cfg := sv.cfg
	cfg.Fanouts = make([]int, len(h.Fanouts))
	for i, f := range h.Fanouts {
		cfg.Fanouts[i] = int(f)
	}
	cfg.Seed = h.Seed
	s, err := NewShard(int(h.ShardID), h.Lo, h.Hi, sv.csr, sv.feats, sv.ntypes, sv.model, plan, cfg)
	if err != nil {
		return nil, err
	}
	sv.shard = s
	sv.ident = h
	sv.helloRaw = append([]byte(nil), payload...)
	return s, nil
}

// validate cross-checks everything the node can verify locally past the
// protocol version (DecodeHello's): identity ranges (replica id included),
// graph and model shape, bitwise parameter parity, and that the claimed
// owned range is exactly what Boundaries derives on this node's copy of
// the graph.
func (sv *Server) validate(h *wire.Hello) error {
	nv := int64(len(sv.csr.RowPtr) - 1)
	ne := int64(len(sv.csr.Col))
	cfg := sv.model.Cfg
	switch {
	case h.Shards < 1 || h.ShardID < 0 || h.ShardID >= h.Shards:
		return fmt.Errorf("shard id %d of %d", h.ShardID, h.Shards)
	case h.Replicas < 1 || h.Replica < 0 || h.Replica >= h.Replicas:
		return fmt.Errorf("replica id %d of %d", h.Replica, h.Replicas)
	case h.NumVertices != nv || h.NumEdges != ne:
		return fmt.Errorf("graph is %dv/%de on the router, %dv/%de here — different dataset", h.NumVertices, h.NumEdges, nv, ne)
	case int(h.NumTypes) != sv.ntypes:
		return fmt.Errorf("%d edge types on the router, %d here", h.NumTypes, sv.ntypes)
	case h.Kind != cfg.Kind.String():
		return fmt.Errorf("model %s on the router, %s here", h.Kind, cfg.Kind)
	case int(h.InDim) != cfg.InDim || int(h.Hidden) != cfg.Hidden || int(h.OutDim) != cfg.OutDim || int(h.Layers) != cfg.Layers:
		return fmt.Errorf("model shape %d/%d/%d×%d on the router, %d/%d/%d×%d here",
			h.InDim, h.Hidden, h.OutDim, h.Layers, cfg.InDim, cfg.Hidden, cfg.OutDim, cfg.Layers)
	case len(h.Fanouts) != cfg.Layers:
		return fmt.Errorf("%d fan-outs for a %d-layer model", len(h.Fanouts), cfg.Layers)
	}
	if sum := ParamSum(sv.model); h.ParamSum != sum {
		return fmt.Errorf("parameter hash %016x on the router, %016x here — different checkpoint", h.ParamSum, sum)
	}
	bounds := Boundaries(sv.csr, int(h.Shards))
	if bounds[h.ShardID] != h.Lo || bounds[h.ShardID+1] != h.Hi {
		return fmt.Errorf("placement derives [%d,%d) for shard %d here, router claims [%d,%d)",
			bounds[h.ShardID], bounds[h.ShardID+1], h.ShardID, h.Lo, h.Hi)
	}
	return nil
}
