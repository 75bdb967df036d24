package shard

import (
	"context"
	"errors"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"wisegraph/internal/fault"
	"wisegraph/internal/obs"
)

// The replica battery: assignment grouping, the failover/hedge ladder
// over fake connections (deterministic, no sockets), health-score
// demotion and routing, winning-attempt-only byte accounting, and an
// in-process daemon-kill failover with bitwise parity.

func TestAssignReplicas(t *testing.T) {
	groups, err := AssignReplicas([]string{"a", "b", "c", "d"}, 2)
	if err != nil {
		t.Fatalf("AssignReplicas: %v", err)
	}
	if len(groups) != 2 || groups[0][0] != "a" || groups[0][1] != "b" || groups[1][0] != "c" || groups[1][1] != "d" {
		t.Fatalf("groups = %v, want [[a b] [c d]]", groups)
	}
	// R defaults to 1: every address is its own span.
	groups, err = AssignReplicas([]string{"a", "b"}, 0)
	if err != nil || len(groups) != 2 || len(groups[0]) != 1 {
		t.Fatalf("AssignReplicas(r=0) = %v, %v; want 2 singleton spans", groups, err)
	}
	if _, err := AssignReplicas([]string{"a", "b", "c"}, 2); err == nil {
		t.Fatal("3 addresses formed 2-way replica groups")
	}
	if _, err := AssignReplicas(nil, 1); err == nil {
		t.Fatal("empty address list accepted")
	}
}

// fakeConn is a scriptable replica: it can fail with a transport error,
// fail with a deterministic application error, or straggle for a fixed
// delay before answering (respecting hedge cancellation).
type fakeConn struct {
	calls    atomic.Uint64
	transErr atomic.Bool
	appErr   atomic.Bool
	delay    time.Duration
}

func (c *fakeConn) answer(ctx context.Context) error {
	c.calls.Add(1)
	if c.delay > 0 {
		select {
		case <-time.After(c.delay):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	if c.transErr.Load() {
		return &TransportError{Addr: "fake", Err: errors.New("connection refused")}
	}
	if c.appErr.Load() {
		return errors.New("vertex 7 outside owned range")
	}
	return nil
}

func (c *fakeConn) Expand(ctx context.Context, args *ExpandArgs) (*ExpandReply, error) {
	if err := c.answer(ctx); err != nil {
		return nil, err
	}
	return &ExpandReply{Hit: []bool{true}, Rows: []float32{1}}, nil
}

func (c *fakeConn) Compute(ctx context.Context, args *ComputeArgs) (*ComputeReply, error) {
	if err := c.answer(ctx); err != nil {
		return nil, err
	}
	return &ComputeReply{Rows: []float32{1}}, nil
}

// fakeFleet wires one span's replica set out of fake conns — the routing
// layer with nothing underneath it.
func fakeFleet(t *testing.T, conns ...Conn) *Fleet {
	t.Helper()
	cfg := Config{Replicas: len(conns), Timeout: 100 * time.Millisecond}.withDefaults()
	f := &Fleet{cfg: cfg, bounds: []int32{0, 100}, shards: make([][]*Shard, 1)}
	f.conns = [][]Conn{conns}
	hs := make([]*replicaHealth, len(conns))
	for i := range hs {
		hs[i] = newReplicaHealth()
	}
	f.health = [][]*replicaHealth{hs}
	f.stats = []*shardStats{{}}
	return f
}

// TestReplicaFailoverDemotes: a replica that fails with transport errors
// is failed over immediately (zero surfaced errors), its health score is
// halved so replicaOrder stops picking it first, and it is NOT re-picked
// on later calls while a healthy replica answers.
func TestReplicaFailoverDemotes(t *testing.T) {
	dead, live := &fakeConn{}, &fakeConn{}
	dead.transErr.Store(true)
	f := fakeFleet(t, dead, live)

	for i := 0; i < 10; i++ {
		if _, err := f.callExpand(context.Background(), 0, &ExpandArgs{Level: 0, Dim: 1, Verts: []int32{1}}); err != nil {
			t.Fatalf("call %d surfaced %v despite a healthy replica", i, err)
		}
	}
	if _, _, _, failures := f.Resilience(); failures != 0 {
		t.Fatalf("%d permanent failures with a healthy replica present", failures)
	}
	if hd, hl := f.Health(0, 0), f.Health(0, 1); hd >= hl || hd > healthDecay {
		t.Fatalf("dead replica health %v vs live %v — failure did not demote", hd, hl)
	}
	if got := f.replicaOrder(0)[0]; got != 1 {
		t.Fatalf("replicaOrder leads with demoted replica %d", got)
	}
	// Demoted means demoted: after its first failure the dead replica is
	// never ranked first again, so it sees at most that one call (plus any
	// hedge, which a fast live replica never leaves time for).
	if n := dead.calls.Load(); n > 1 {
		t.Fatalf("demoted replica was re-picked %d times", n)
	}
	st := f.Stats()[0]
	if len(st.Replicas) != 2 {
		t.Fatalf("stats carry %d replicas, want 2", len(st.Replicas))
	}
	if st.Replicas[0].Fails == 0 || st.Replicas[1].Wins == 0 {
		t.Fatalf("replica stats %+v don't reflect the failover", st.Replicas)
	}
}

// TestReplicaHealthRecovers: a demoted replica that starts answering
// again climbs back — health is a score, not a tombstone.
func TestReplicaHealthRecovers(t *testing.T) {
	flappy, live := &fakeConn{}, &fakeConn{}
	flappy.transErr.Store(true)
	f := fakeFleet(t, flappy, live)

	if _, err := f.callExpand(context.Background(), 0, &ExpandArgs{Level: 0, Dim: 1, Verts: []int32{1}}); err != nil {
		t.Fatalf("callExpand: %v", err)
	}
	h := f.health[0][0]
	h.bad()
	h.bad() // deep demotion
	low := h.score()

	flappy.transErr.Store(false)
	for i := 0; i < 8; i++ {
		h.good()
	}
	if got := h.score(); got <= low || got < 0.9 {
		t.Fatalf("health %v after 8 successes from %v — recovery too slow", got, low)
	}
	if got := h.score(); got > 1 {
		t.Fatalf("health %v recovered past 1", got)
	}
}

// TestReplicaHedgeOnStraggler: a straggling leader is hedged after
// Timeout/4 — the fast replica's answer wins and no call waits out the
// straggle — whether the straggler is a slow replica or an injected
// shard.rpc latency fault at replica 0's transport. (With one replica
// there is nobody to hedge to: TestCallLadderTimeout pins hedges == 0.)
func TestReplicaHedgeOnStraggler(t *testing.T) {
	const spike = 2 * time.Second
	for _, tc := range []struct {
		name string
		slow Conn
	}{
		{"slow-replica", &fakeConn{delay: spike}},
		{"injected-latency", &faultConn{Conn: &fakeConn{}, addr: "fake", timeout: 100 * time.Millisecond}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fast := &fakeConn{}
			f := fakeFleet(t, tc.slow, fast)
			fault.WithSchedule(&fault.Schedule{
				Seed:  1,
				Sites: map[string]fault.SiteConfig{fault.SiteShardRPC: {LatencyRate: 1, Delay: 2 * spike}},
			}, func() {
				start := time.Now()
				for i := 0; i < 6; i++ {
					if _, err := f.callExpand(context.Background(), 0, &ExpandArgs{Level: 0, Dim: 1, Verts: []int32{1}}); err != nil {
						t.Fatalf("call %d: %v", i, err)
					}
				}
				// Rotation starts roughly half the calls on the straggler; each
				// such call pays one hedge delay (25ms), and all six together
				// finish inside one spike.
				if elapsed := time.Since(start); elapsed > spike/2 {
					t.Fatalf("6 calls took %v — a straggler was waited out instead of hedged", elapsed)
				}
			})
			if _, hedges, _, failures := f.Resilience(); hedges == 0 || failures != 0 {
				t.Fatalf("hedges=%d failures=%d, want >0 hedges and 0 failures", hedges, failures)
			}
			if fast.calls.Load() == 0 {
				t.Fatal("fast replica never hedged in")
			}
		})
	}
}

// TestReplicaAppErrorNotRetriedNotDemoted: a deterministic application
// error surfaces after one pass over the replica set — no outer ladder
// retries burned, no health demotion (every replica would answer the
// same way, so it says nothing about availability).
func TestReplicaAppErrorNotRetriedNotDemoted(t *testing.T) {
	a, b := &fakeConn{}, &fakeConn{}
	a.appErr.Store(true)
	b.appErr.Store(true)
	f := fakeFleet(t, a, b)

	_, err := f.callExpand(context.Background(), 0, &ExpandArgs{Level: 0, Dim: 1, Verts: []int32{7}})
	if err == nil || !strings.Contains(err.Error(), "outside owned range") {
		t.Fatalf("error = %v, want the application error", err)
	}
	if n := a.calls.Load() + b.calls.Load(); n != 2 {
		t.Fatalf("%d attempts for a deterministic error, want exactly one per replica", n)
	}
	if ha, hb := f.Health(0, 0), f.Health(0, 1); ha != 1 || hb != 1 {
		t.Fatalf("app error demoted health to %v/%v", ha, hb)
	}
}

// mangleConn answers through a real shard and then damages the reply the
// way a buggy or hostile daemon could: the wire decoder accepts any
// well-framed reply, so only the router can tell it does not answer the
// request.
type mangleConn struct {
	Conn
	calls   atomic.Uint64
	expand  func(a *ExpandArgs, r *ExpandReply)
	compute func(r *ComputeReply)
}

func (c *mangleConn) Expand(ctx context.Context, a *ExpandArgs) (*ExpandReply, error) {
	c.calls.Add(1)
	r, err := c.Conn.Expand(ctx, a)
	if err == nil && c.expand != nil {
		c.expand(a, r)
	}
	return r, err
}

func (c *mangleConn) Compute(ctx context.Context, a *ComputeArgs) (*ComputeReply, error) {
	c.calls.Add(1)
	r, err := c.Conn.Compute(ctx, a)
	if err == nil && c.compute != nil {
		c.compute(r)
	}
	return r, err
}

// TestMalformedReplyNotRetriedNotDemoted: a reply whose shape does not
// answer its request — short Hit, Rows or Srcs, a source id outside
// [0,V), short Compute rows — used to panic the router on an index or be
// computed from a zero row. It must surface as a permanent application
// error after exactly the calls a healthy forward makes up to that point:
// nothing retried, no replica demoted, one failure booked.
func TestMalformedReplyNotRetriedNotDemoted(t *testing.T) {
	g := testGraph(t, 100, 600, 6)
	atLevel := func(level int, f func(r *ExpandReply)) func(*ExpandArgs, *ExpandReply) {
		return func(a *ExpandArgs, r *ExpandReply) {
			if a.Level == level {
				f(r)
			}
		}
	}
	// Span 0's conn is the mangled one. At one shard no level-0 Expand is
	// ever issued, so the halo case runs on two.
	cases := []struct {
		name    string
		shards  int
		calls   uint64 // RPCs issued to span 0 up to and including the bad reply
		expand  func(*ExpandArgs, *ExpandReply)
		compute func(*ComputeReply)
	}{
		{"short-hit", 1, 1, atLevel(2, func(r *ExpandReply) { r.Hit = r.Hit[:len(r.Hit)-1] }), nil},
		{"short-rows", 1, 1, atLevel(2, func(r *ExpandReply) { r.Rows = r.Rows[:len(r.Rows)-1] }), nil},
		{"long-rows", 1, 2, atLevel(1, func(r *ExpandReply) { r.Rows = append(r.Rows, 0) }), nil},
		{"long-halo-rows", 2, 3, atLevel(0, func(r *ExpandReply) { r.Rows = append(r.Rows, 0) }), nil},
		{"short-srcs", 1, 2, atLevel(1, func(r *ExpandReply) { r.Srcs = r.Srcs[:len(r.Srcs)-1] }), nil},
		{"no-srcs", 1, 1, atLevel(2, func(r *ExpandReply) { r.Srcs = nil }), nil},
		{"source-past-v", 1, 1, atLevel(2, func(r *ExpandReply) { r.Srcs[0] = []int32{100} }), nil},
		{"source-negative", 1, 1, atLevel(2, func(r *ExpandReply) { r.Srcs[0] = []int32{-1} }), nil},
		{"short-compute-rows", 1, 3, nil, func(r *ComputeReply) { r.Rows = r.Rows[:len(r.Rows)-1] }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := testFleet(t, g, tc.shards, 1, 0)
			bad := &mangleConn{Conn: f.conns[0][0], expand: tc.expand, compute: tc.compute}
			f.conns[0][0] = bad
			id := obs.NewID()
			_, _, err := f.Forward(id, 0, []int32{0, 13, 50, 99}, obs.Begin(obs.StageSample, id))
			if err == nil || !strings.Contains(err.Error(), "malformed reply") {
				t.Fatalf("Forward error = %v, want a malformed-reply error", err)
			}
			var te *TransportError
			if errors.As(err, &te) {
				t.Fatalf("malformed reply surfaced as retryable transport error %v", err)
			}
			if n := bad.calls.Load(); n != tc.calls {
				t.Fatalf("%d RPCs issued, want %d — the bad reply was retried", n, tc.calls)
			}
			retries, _, _, failures := f.Resilience()
			if retries != 0 || failures != 1 {
				t.Fatalf("retries=%d failures=%d, want 0 and 1", retries, failures)
			}
			if h := f.Health(0, 0); h != 1 {
				t.Fatalf("malformed reply demoted replica health to %v", h)
			}
		})
	}
}

// TestByteAccountingTimeoutRetry pins the double-booking fix: a Forward
// whose RPCs hit injected timeout-retries must book exactly the bytes of
// a fault-free run — only the winning attempt of each call counts, never
// a timed-out or retried loser.
func TestByteAccountingTimeoutRetry(t *testing.T) {
	g := testGraph(t, 100, 600, 6)
	seeds := []int32{0, 13, 50, 99}

	clean := testFleet(t, g, 2, 2, 0)
	want := forwardData(t, clean, seeds)
	var wantIn, wantOut uint64
	for _, st := range clean.Stats() {
		wantIn += st.BytesIn
		wantOut += st.BytesOut
	}
	if wantIn == 0 || wantOut == 0 {
		t.Fatalf("clean run booked bytesIn=%d bytesOut=%d", wantIn, wantOut)
	}

	faulted := testFleetCfg(t, g, Config{Shards: 2, Workers: 2, Timeout: time.Millisecond})
	var got []float32
	fault.WithSchedule(&fault.Schedule{
		Seed: 1,
		Sites: map[string]fault.SiteConfig{
			fault.SiteShardRPC: {LatencyRate: 0.5, Delay: 500 * time.Millisecond},
		},
	}, func() {
		got = forwardData(t, faulted, seeds)
	})
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("logits[%d] = %v under timeout retries, want %v", i, got[i], want[i])
		}
	}
	_, _, timeouts, failures := faulted.Resilience()
	if timeouts == 0 {
		t.Fatal("schedule injected no timeouts — the retry path was never exercised")
	}
	if failures != 0 {
		t.Fatalf("%d permanent failures under retryable timeouts", failures)
	}
	var gotIn, gotOut uint64
	for _, st := range faulted.Stats() {
		gotIn += st.BytesIn
		gotOut += st.BytesOut
	}
	if gotIn != wantIn || gotOut != wantOut {
		t.Fatalf("faulted run booked in=%d out=%d, clean run in=%d out=%d — retried attempts double-booked",
			gotIn, gotOut, wantIn, wantOut)
	}
}

// TestInProcessReplicaParity: an in-process fleet with R=2 serves
// bitwise-identical logits to R=1 — replication must never change a bit,
// whichever replica's answer wins the rotation.
func TestInProcessReplicaParity(t *testing.T) {
	n := newTestNode(t, 100, 600, 6)
	seeds := []int32{0, 13, 50, 99}

	r1, err := NewFleet(n.csr, n.feats, n.g.NumTypes, n.model, n.plan, Config{
		Shards: 2, Replicas: 1, Workers: 2, Fanouts: []int{4, 4}, Seed: 3,
	})
	if err != nil {
		t.Fatalf("NewFleet(R=1): %v", err)
	}
	t.Cleanup(r1.Close)
	want := forwardData(t, r1, seeds)

	r2, err := NewFleet(n.csr, n.feats, n.g.NumTypes, n.model, n.plan, Config{
		Shards: 2, Replicas: 2, Workers: 2, Fanouts: []int{4, 4}, Seed: 3,
	})
	if err != nil {
		t.Fatalf("NewFleet(R=2): %v", err)
	}
	t.Cleanup(r2.Close)
	if r2.Replicas() != 2 {
		t.Fatalf("Replicas() = %d, want 2", r2.Replicas())
	}
	got := forwardData(t, r2, seeds)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("logits[%d] = %v with R=2, want %v with R=1", i, got[i], want[i])
		}
	}
}

// TestRemoteReplicaKillFailover: two daemons replicate one span; one is
// killed (listener and every live connection torn down) and the next
// Forward must succeed with zero surfaced errors, bitwise-identical
// logits, and the dead replica demoted in the router's health table. The
// cross-process SIGKILL version lives in internal/serve.
func TestRemoteReplicaKillFailover(t *testing.T) {
	n := newTestNode(t, 100, 600, 6)
	seeds := []int32{0, 13, 50, 99}

	local, err := NewFleet(n.csr, n.feats, n.g.NumTypes, n.model, n.plan, fleetConfig())
	if err != nil {
		t.Fatalf("NewFleet: %v", err)
	}
	t.Cleanup(local.Close)
	want := forwardData(t, local, seeds)

	type daemon struct {
		sv     *Server
		ln     net.Listener
		killed bool
	}
	ds := make([]*daemon, 2)
	addrs := make([]string, 2)
	for i := range addrs {
		sv := NewServer(n.csr, n.feats, n.g.NumTypes, n.model, NodeConfig{Workers: 2})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		go sv.Serve(ln)
		ds[i] = &daemon{sv: sv, ln: ln}
		addrs[i] = ln.Addr().String()
	}
	kill := func(d *daemon) {
		if !d.killed {
			d.killed = true
			d.ln.Close()
			d.sv.Close()
		}
	}
	t.Cleanup(func() {
		for _, d := range ds {
			kill(d)
		}
	})

	cfg := fleetConfig()
	cfg.Replicas = 2
	remote, err := NewRemoteFleet(n.csr, n.feats, n.g.NumTypes, n.model, n.plan, cfg, addrs)
	if err != nil {
		t.Fatalf("NewRemoteFleet: %v", err)
	}
	t.Cleanup(remote.Close)
	if remote.Size() != 1 || remote.Replicas() != 2 {
		t.Fatalf("fleet is %d spans x %d replicas, want 1x2", remote.Size(), remote.Replicas())
	}
	got := forwardData(t, remote, seeds)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("logits[%d] = %v with both replicas up, want %v", i, got[i], want[i])
		}
	}

	// Kill replica 0: stop accepting and tear down its live connections —
	// the router sees broken streams and refused dials from here on.
	kill(ds[0])

	for round := 0; round < 4; round++ {
		got = forwardData(t, remote, seeds)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("round %d logits[%d] = %v after replica kill, want %v", round, i, got[i], want[i])
			}
		}
	}
	if _, _, _, failures := remote.Resilience(); failures != 0 {
		t.Fatalf("%d surfaced failures with a live replica remaining", failures)
	}
	if hd, hl := remote.Health(0, 0), remote.Health(0, 1); hd >= hl {
		t.Fatalf("dead replica health %v not demoted below live %v", hd, hl)
	}
}
