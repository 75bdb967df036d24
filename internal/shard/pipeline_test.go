package shard

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"wisegraph/internal/shard/wire"
)

// The pipelining battery: the transport must sustain multiple in-flight
// RPCs on one connection, route out-of-order replies by reqid, and
// survive Close/redial/demux races without the send-on-closed-channel
// class of bug (run under -race).

// validHello builds the Hello a daemon over n will accept for a 1-span,
// 1-replica fleet.
func validHello(t *testing.T, n *testNode) *wire.Hello {
	t.Helper()
	planBytes, err := n.plan.MarshalPlan()
	if err != nil {
		t.Fatalf("MarshalPlan: %v", err)
	}
	return &wire.Hello{
		Proto: wire.ProtoVersion, ShardID: 0, Shards: 1, Replica: 0, Replicas: 1,
		Lo: 0, Hi: int32(n.g.NumVertices),
		NumVertices: int64(len(n.csr.RowPtr) - 1), NumEdges: int64(len(n.csr.Col)),
		NumTypes: 1, InDim: 8, Hidden: 8, OutDim: 3, Layers: 2,
		Fanouts: []int32{4, 4}, Seed: 3, ParamSum: ParamSum(n.model),
		Kind: "SAGE", Plan: planBytes,
	}
}

// TestPipelinedOutOfOrder scripts a fake daemon that answers two
// concurrent requests in REVERSE order and asserts each caller gets the
// reply tagged with its own reqid — plus that both RPCs were genuinely
// in flight at once (the ≥2-in-flight pipelining acceptance bar).
func TestPipelinedOutOfOrder(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	// Closed when the test body returns, i.e. once both callers hold their
	// replies: the peer keeps its socket open until then. Closing it right
	// behind the last write raced the client: the demux fails the connection
	// on EOF, and a waiter that finds its reply and that failure both ready
	// may report the failure.
	release := make(chan struct{})
	defer close(release)

	// The scripted peer: accept one connection, OK the Hello, read BOTH
	// requests before answering either, then reply in reverse arrival
	// order — each reply's first row encodes the request's first vertex,
	// so a mis-routed reply is unmissable.
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		if t, _, _, err := wire.ReadFrame(nc); err != nil || t != wire.MsgHello {
			return
		}
		nc.Write(wire.AppendHelloOK(nil))
		type req struct {
			id   uint32
			vert int32
		}
		var reqs []req
		for len(reqs) < 2 {
			mt, reqid, payload, err := wire.ReadFrame(nc)
			if err != nil || mt != wire.MsgExpand {
				return
			}
			args, err := wire.DecodeExpandArgs(payload)
			if err != nil {
				return
			}
			reqs = append(reqs, req{id: reqid, vert: args.Verts[0]})
		}
		for i := len(reqs) - 1; i >= 0; i-- {
			rep := &wire.ExpandReply{Hit: []bool{true}, Rows: []float32{float32(reqs[i].vert)}}
			nc.Write(wire.AppendExpandReply(nil, reqs[i].id, rep))
		}
		<-release
	}()

	// Handshake directly — the scripted peer validates nothing.
	c, err := newTCPConn(ln.Addr().String(), &wire.Hello{Proto: wire.ProtoVersion}, 5*time.Second)
	if err != nil {
		t.Fatalf("newTCPConn: %v", err)
	}
	defer c.close()

	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i, vert := range []int32{7, 42} {
		wg.Add(1)
		go func(i int, vert int32) {
			defer wg.Done()
			rep, err := c.Expand(context.Background(), &ExpandArgs{Level: 1, Dim: 1, Verts: []int32{vert}})
			if err != nil {
				errs[i] = err
				return
			}
			if len(rep.Rows) != 1 || rep.Rows[0] != float32(vert) {
				t.Errorf("caller %d (vert %d) got rows %v — reply routed to the wrong waiter", i, vert, rep.Rows)
			}
		}(i, vert)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
	}
	if got := c.MaxInFlight(); got < 2 {
		t.Fatalf("max in-flight %d on one connection, want >= 2 (transport not pipelined)", got)
	}
}

// TestPipelinedDispatchRace hammers one endpoint with concurrent calls
// while the live connection is severed (forcing redial) and the endpoint
// is closed mid-flight — 100 iterations under -race. The invariant is
// the PR 9 shutdown contract carried over to the pipelined transport: no
// send on a closed channel, no deadlock, every call returns.
func TestPipelinedDispatchRace(t *testing.T) {
	n := newTestNode(t, 40, 200, 2)
	addr := startDaemon(t, n, n.model)
	hello := validHello(t, n)

	for i := 0; i < 100; i++ {
		c, err := newTCPConn(addr, hello, time.Second)
		if err != nil {
			t.Fatalf("iteration %d: newTCPConn: %v", i, err)
		}
		start := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				<-start
				for k := 0; k < 5; k++ {
					// Errors are expected once close/sever land; the
					// invariant is no panic and no stuck call.
					c.Expand(context.Background(), &ExpandArgs{Level: 0, Dim: 8, Verts: []int32{int32((w*5 + k) % n.g.NumVertices)}})
				}
			}(w)
		}
		// One goroutine severs the live stream (redial path), one closes
		// the endpoint (shutdown path) — both race the callers above.
		wg.Add(2)
		go func() {
			defer wg.Done()
			<-start
			c.mu.Lock()
			pc := c.live
			c.mu.Unlock()
			if pc != nil {
				pc.nc.Close()
			}
		}()
		go func() {
			defer wg.Done()
			<-start
			c.close()
		}()
		close(start)
		wg.Wait()
		if got := c.inflight.Load(); got != 0 {
			t.Fatalf("iteration %d: %d RPCs still in flight after close+drain", i, got)
		}
	}
}

// TestPipelinedTimeoutKeepsStream pins the per-call-timer design: a call
// whose reply never arrives times out alone — the shared stream stays
// live, and a later call on the same connection succeeds without a
// redial (the stale reply, if it ever lands, is dropped by reqid).
func TestPipelinedTimeoutKeepsStream(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()

	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		if t, _, _, err := wire.ReadFrame(nc); err != nil || t != wire.MsgHello {
			return
		}
		nc.Write(wire.AppendHelloOK(nil))
		for {
			mt, reqid, payload, err := wire.ReadFrame(nc)
			if err != nil || mt != wire.MsgExpand {
				return
			}
			args, err := wire.DecodeExpandArgs(payload)
			if err != nil {
				return
			}
			if args.Verts[0] == 0 {
				continue // swallow: this caller must time out
			}
			rep := &wire.ExpandReply{Hit: []bool{true}, Rows: []float32{float32(args.Verts[0])}}
			nc.Write(wire.AppendExpandReply(nil, reqid, rep))
		}
	}()

	c, err := newTCPConn(ln.Addr().String(), &wire.Hello{Proto: wire.ProtoVersion}, 150*time.Millisecond)
	if err != nil {
		t.Fatalf("newTCPConn: %v", err)
	}
	defer c.close()

	c.mu.Lock()
	before := c.live
	c.mu.Unlock()

	_, err = c.Expand(context.Background(), &ExpandArgs{Level: 1, Dim: 1, Verts: []int32{0}})
	var te *TransportError
	if !errors.As(err, &te) || !te.Timeout {
		t.Fatalf("swallowed call error = %v, want TransportError{Timeout: true}", err)
	}

	rep, err := c.Expand(context.Background(), &ExpandArgs{Level: 1, Dim: 1, Verts: []int32{5}})
	if err != nil {
		t.Fatalf("call after a timeout failed: %v (stream was poisoned)", err)
	}
	if rep.Rows[0] != 5 {
		t.Fatalf("rows %v after timeout, want [5]", rep.Rows)
	}
	c.mu.Lock()
	after := c.live
	c.mu.Unlock()
	if after != before {
		t.Fatal("timeout forced a redial — the per-call timer should leave the stream live")
	}
}
