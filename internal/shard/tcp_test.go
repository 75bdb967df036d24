package shard

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http/httptest"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"wisegraph/internal/fault"
	"wisegraph/internal/graph"
	"wisegraph/internal/joint"
	"wisegraph/internal/nn"
	"wisegraph/internal/obs"
	"wisegraph/internal/shard/wire"
	"wisegraph/internal/tensor"
)

// The TCP-transport battery: the same Forward over real localhost
// sockets must be bitwise-identical to the in-process fleet, the
// handshake must reject anything that cannot serve identically, broken
// connections must heal through the retry ladder, and the dispatch/close
// shutdown race must stay dead (run this file under -race).

// testNode bundles the frozen state both ends of a wire share.
type testNode struct {
	g     *graph.Graph
	csr   *graph.CSR
	feats *tensor.Tensor
	model *nn.Model
	plan  *joint.Result
}

func newTestNode(t *testing.T, v, edges int, seed uint64) *testNode {
	t.Helper()
	g := testGraph(t, v, edges, seed)
	const dim = 8
	feats := tensor.New(g.NumVertices, dim)
	data := feats.Data()
	rng := tensor.NewRNG(5)
	for i := range data {
		data[i] = rng.Float32()
	}
	m, err := nn.NewModel(nn.Config{
		Kind: nn.SAGE, InDim: dim, Hidden: 8, OutDim: 3,
		Layers: 2, NumTypes: 1, Seed: 7,
	})
	if err != nil {
		t.Fatalf("NewModel: %v", err)
	}
	return &testNode{
		g: g, csr: g.BuildCSRByDst(), feats: feats, model: m,
		plan: joint.Search(g, m.Cfg.Kind, m.Cfg.Hidden, m.Cfg.Hidden, m.Cfg.NumTypes, joint.Options{}),
	}
}

// startDaemon runs one in-process Server on a real localhost socket and
// returns its address — the daemon side of the wire without the process
// boundary (the cross-process path is covered in internal/serve).
func startDaemon(t *testing.T, n *testNode, model *nn.Model) string {
	t.Helper()
	return serve(t, NewServer(n.csr, n.feats, n.g.NumTypes, model, NodeConfig{Workers: 2}))
}

// serve puts sv on a fresh localhost listener until the test ends.
func serve(t *testing.T, sv *Server) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go sv.Serve(ln)
	t.Cleanup(func() {
		ln.Close()
		sv.Close()
	})
	return ln.Addr().String()
}

func fleetConfig() Config {
	return Config{Workers: 2, Fanouts: []int{4, 4}, Seed: 3, Timeout: 2 * time.Second}
}

func forwardData(t *testing.T, f *Fleet, seeds []int32) []float32 {
	t.Helper()
	id := obs.NewID()
	out, _, err := f.Forward(id, 0, seeds, obs.Begin(obs.StageSample, id))
	if err != nil {
		t.Fatalf("Forward: %v", err)
	}
	got := append([]float32(nil), out.Data()...)
	tensor.Put(out)
	return got
}

// TestTCPForwardMatchesInProcess drives the full RPC protocol over real
// sockets — Hello handshake, Expand, the level-0 halo fetch, Compute — and
// demands bitwise-equal logits against the in-process fleet at 1, 2 and
// 4 remote shards.
func TestTCPForwardMatchesInProcess(t *testing.T) {
	n := newTestNode(t, 100, 600, 6)
	seeds := []int32{0, 13, 50, 99}

	local, err := NewFleet(n.csr, n.feats, n.g.NumTypes, n.model, n.plan, fleetConfig())
	if err != nil {
		t.Fatalf("NewFleet: %v", err)
	}
	t.Cleanup(local.Close)
	want := forwardData(t, local, seeds)

	for _, shards := range []int{1, 2, 4} {
		addrs := make([]string, shards)
		for i := range addrs {
			addrs[i] = startDaemon(t, n, n.model)
		}
		remote, err := NewRemoteFleet(n.csr, n.feats, n.g.NumTypes, n.model, n.plan, fleetConfig(), addrs)
		if err != nil {
			t.Fatalf("NewRemoteFleet(%d): %v", shards, err)
		}
		if !remote.Remote() {
			t.Fatal("remote fleet does not report Remote()")
		}
		got := forwardData(t, remote, seeds)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("shards=%d logits[%d] = %v over TCP, want %v in-process", shards, i, got[i], want[i])
			}
		}
		// Byte accounting must reflect real encoded traffic on the wire.
		for i, st := range remote.Stats() {
			if st.RPCs > 0 && (st.BytesIn == 0 || st.BytesOut == 0) {
				t.Fatalf("shard %d: %d RPCs but bytesIn=%d bytesOut=%d", i, st.RPCs, st.BytesIn, st.BytesOut)
			}
		}
		remote.Close()
	}
}

// TestTCPHelloRejection pins the handshake validation: a daemon with a
// different checkpoint (parameter hash), a claimed range the placement
// does not derive, or an unknown protocol version must be refused at
// connect time with a descriptive error.
func TestTCPHelloRejection(t *testing.T) {
	n := newTestNode(t, 100, 600, 6)

	otherModel, err := nn.NewModel(nn.Config{
		Kind: nn.SAGE, InDim: 8, Hidden: 8, OutDim: 3,
		Layers: 2, NumTypes: 1, Seed: 8, // different init seed → different params
	})
	if err != nil {
		t.Fatalf("NewModel: %v", err)
	}
	addr := startDaemon(t, n, otherModel)
	if _, err := NewRemoteFleet(n.csr, n.feats, n.g.NumTypes, n.model, n.plan, fleetConfig(), []string{addr}); err == nil {
		t.Fatal("fleet built against a daemon holding different parameters")
	} else if !strings.Contains(err.Error(), "hello rejected") || !strings.Contains(err.Error(), "different checkpoint") {
		t.Fatalf("wrong error for parameter mismatch: %v", err)
	}

	// Version 2 — the protocol before level-1 requests carried halo rows
	// only — version 3, whose Hello named a placement policy, and version
	// 4, whose Hello named an engine, are as foreign as one not invented
	// yet: a mixed fleet is refused here, not one mis-sized RPC at a time.
	addr = startDaemon(t, n, n.model)
	for _, proto := range []uint32{2, 3, 4, wire.ProtoVersion + 41} {
		want := fmt.Sprintf("protocol %d, this node speaks %d", proto, wire.ProtoVersion)
		if _, err := newTCPConn(addr, &wire.Hello{Proto: proto}, time.Second); err == nil {
			t.Fatalf("protocol version %d accepted", proto)
		} else if !strings.Contains(err.Error(), "hello rejected") || !strings.Contains(err.Error(), want) {
			t.Fatalf("wrong error for protocol %d: %v, want %q", proto, err, want)
		}
	}

	planBytes, err := n.plan.MarshalPlan()
	if err != nil {
		t.Fatalf("MarshalPlan: %v", err)
	}
	wrongRange := &wire.Hello{
		Proto: wire.ProtoVersion, ShardID: 0, Shards: 2, Replicas: 1,
		Lo: 1, Hi: 99, // not what edge placement derives
		NumVertices: int64(len(n.csr.RowPtr) - 1), NumEdges: int64(len(n.csr.Col)),
		NumTypes: 1, InDim: 8, Hidden: 8, OutDim: 3, Layers: 2,
		Fanouts: []int32{4, 4}, Seed: 3, ParamSum: ParamSum(n.model),
		Kind: "SAGE", Plan: planBytes,
	}
	if _, err := newTCPConn(addr, wrongRange, time.Second); err == nil {
		t.Fatal("bogus owned range accepted")
	} else if !strings.Contains(err.Error(), "placement derives") {
		t.Fatalf("wrong error for range mismatch: %v", err)
	}
}

// TestTCPReconnect severs the live pipelined connection under the router
// and demands the next Forward heal transparently: the demux fails the
// connection as a unit, a racing write surfaces as a TransportError the
// ladder absorbs, the endpoint redials and re-handshakes, and the logits
// still come back bitwise-identical.
func TestTCPReconnect(t *testing.T) {
	n := newTestNode(t, 100, 600, 6)
	seeds := []int32{0, 13, 50, 99}
	addr := startDaemon(t, n, n.model)
	remote, err := NewRemoteFleet(n.csr, n.feats, n.g.NumTypes, n.model, n.plan, fleetConfig(), []string{addr})
	if err != nil {
		t.Fatalf("NewRemoteFleet: %v", err)
	}
	t.Cleanup(remote.Close)
	want := forwardData(t, remote, seeds)

	// Sever the live stream out from under the endpoint; the next calls
	// must redial (either eagerly, after the demux notices, or through a
	// TransportError retry if they raced the failure detection).
	tc := remote.remote[0]
	tc.mu.Lock()
	pc := tc.live
	tc.mu.Unlock()
	if pc == nil {
		t.Fatal("no live connection after construction's eager dial")
	}
	pc.nc.Close()

	got := forwardData(t, remote, seeds)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("logits[%d] changed across reconnect: %v != %v", i, got[i], want[i])
		}
	}
	if _, _, _, failures := remote.Resilience(); failures != 0 {
		t.Fatalf("%d permanent failures across reconnect", failures)
	}
	tc.mu.Lock()
	relive := tc.live
	tc.mu.Unlock()
	if relive == pc {
		t.Fatal("severed connection still installed as live")
	}
}

// TestTCPApplicationErrorNotRetried pins the transport/application error
// split: a deterministic shard-side rejection (vertex outside the owned
// range) must come back as a plain error on the first attempt — one RPC,
// no retries burned, connection still healthy.
func TestTCPApplicationErrorNotRetried(t *testing.T) {
	n := newTestNode(t, 100, 600, 6)
	addr := startDaemon(t, n, n.model)
	remote, err := NewRemoteFleet(n.csr, n.feats, n.g.NumTypes, n.model, n.plan, fleetConfig(), []string{addr})
	if err != nil {
		t.Fatalf("NewRemoteFleet: %v", err)
	}
	t.Cleanup(remote.Close)

	conn := remote.conns[0][0]
	ctx := context.Background()
	if _, err := conn.Expand(ctx, &ExpandArgs{Level: 0, Dim: 8, Verts: []int32{-1}}); err == nil {
		t.Fatal("out-of-range vertex accepted over the wire")
	} else if !strings.Contains(err.Error(), "outside owned range") {
		t.Fatalf("wrong error: %v", err)
	}
	if _, err := conn.Expand(ctx, &ExpandArgs{Level: 0, Dim: 5, Verts: []int32{1}}); err == nil {
		t.Fatal("wrong Dim accepted over the wire")
	} else if !strings.Contains(err.Error(), "request claims 5") {
		t.Fatalf("wrong error: %v", err)
	}
	// The connection survived both rejections: a valid call still works.
	if _, err := conn.Expand(ctx, &ExpandArgs{Level: 0, Dim: 8, Verts: []int32{1}}); err != nil {
		t.Fatalf("healthy call after rejections: %v", err)
	}
}

// TestDispatchCloseRace is the regression for the send-on-closed-channel
// panic: hedged or straggling dispatches racing Fleet.Close used to
// select `reqCh <- c` after `close(reqCh)` and bring the process down.
// Shutdown now signals through the closed channel only; a straggler gets
// a draining error, never a panic. 100 iterations under -race.
func TestDispatchCloseRace(t *testing.T) {
	n := newTestNode(t, 40, 200, 2)
	for i := 0; i < 100; i++ {
		s, err := NewShard(0, 0, int32(n.g.NumVertices), n.csr, n.feats, n.g.NumTypes, n.model, n.plan,
			NodeConfig{Workers: 2, Fanouts: []int{4, 4}, Seed: 3})
		if err != nil {
			t.Fatalf("NewShard: %v", err)
		}
		start := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				<-start
				for k := 0; k < 25; k++ {
					v := int32((w*25 + k) % n.g.NumVertices)
					// Draining errors are expected once Close lands; the
					// invariant under test is no panic and no lost reply.
					s.Expand(context.Background(), &ExpandArgs{Level: 0, Dim: 8, Verts: []int32{v}})
				}
			}(w)
		}
		close(start)
		s.Close() // races the dispatchers above
		wg.Wait()
		if got := s.InFlight(); got != 0 {
			t.Fatalf("iteration %d: %d RPCs still in flight after Close+drain", i, got)
		}
	}
}

// TestHelloDeadline: a peer that connects and never sends its Hello used
// to hold a daemon goroutine and socket forever. The server must hang up
// on it once the handshake deadline passes and forget the connection —
// while a connection that did handshake may idle past that deadline and
// still be served on the same stream.
func TestHelloDeadline(t *testing.T) {
	n := newTestNode(t, 40, 200, 2)
	sv := NewServer(n.csr, n.feats, n.g.NumTypes, n.model, NodeConfig{Workers: 2})
	sv.helloWait = 50 * time.Millisecond
	addr := serve(t, sv)

	silent, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer silent.Close()
	silent.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := silent.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
		t.Fatalf("silent peer's read = %v, want EOF from the server hanging up", err)
	}
	sv.mu.Lock()
	tracked := len(sv.conns)
	sv.mu.Unlock()
	if tracked != 0 || sv.InFlight() != 0 {
		t.Fatalf("%d connections tracked, %d RPCs in flight after the silent peer was dropped", tracked, sv.InFlight())
	}

	c, err := newTCPConn(addr, validHello(t, n), time.Second)
	if err != nil {
		t.Fatalf("newTCPConn: %v", err)
	}
	defer c.close()
	c.mu.Lock()
	admitted := c.live
	c.mu.Unlock()
	time.Sleep(3 * sv.helloWait) // outwait the deadline the handshake must have cleared
	if _, err := c.Expand(context.Background(), &ExpandArgs{Level: 0, Dim: 8, Verts: []int32{1}}); err != nil {
		t.Fatalf("Expand on an admitted connection idle past the Hello deadline: %v", err)
	}
	c.mu.Lock()
	still := c.live
	c.mu.Unlock()
	if still != admitted {
		t.Fatal("the admitted connection was dropped and redialed — the Hello deadline outlived the handshake")
	}
}

// TestHangupCancelsWaitingRequest: the handlers of a connection run under
// a context that ends with it, so a request still waiting for a worker
// stops waiting once its peer has hung up — it used to wait on, counted in
// flight, for a worker to answer nobody.
func TestHangupCancelsWaitingRequest(t *testing.T) {
	n := newTestNode(t, 40, 200, 2)
	sv := NewServer(n.csr, n.feats, n.g.NumTypes, n.model, NodeConfig{Workers: 1})
	nc, err := net.Dial("tcp", serve(t, sv))
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer nc.Close()
	nc.Write(wire.AppendHello(nil, validHello(t, n)))
	if mt, _, _, err := wire.ReadFrame(nc); err != nil || mt != wire.MsgHelloOK {
		t.Fatalf("handshake answered %v, %v", mt, err)
	}
	s := sv.Shard()
	w := <-s.free // the node's only worker state, held for the whole test
	defer func() { s.free <- w }()

	inFlight := func(want int64) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); s.InFlight() != want; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%d RPCs in flight, want %d", s.InFlight(), want)
			}
		}
	}
	nc.Write(wire.AppendComputeArgs(nil, 1, &ComputeArgs{
		Level: 1, InDim: 8, OutDim: 8, Verts: []int32{0}, In: []int32{0},
	}))
	inFlight(1)
	nc.Close()
	inFlight(0)
}

// daemonRPCs reads wisegraph_node_rpcs_total (both types) off a daemon's
// /metrics page.
func daemonRPCs(t *testing.T, sv *Server) (total float64) {
	t.Helper()
	rec := httptest.NewRecorder()
	sv.WriteMetrics(rec)
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if strings.HasPrefix(line, "wisegraph_node_rpcs_total{") {
			v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
			if err != nil {
				t.Fatalf("metrics line %q: %v", line, err)
			}
			total += v
		}
	}
	return total
}

// TestDaemonMetricsInventory pins the daemon's /metrics families, name and
// type, to testdata/metrics_daemon.txt: a family is added, renamed or
// removed by editing that file. The daemon has been admitted to a fleet
// (identity and cache families) and a fault schedule is installed.
func TestDaemonMetricsInventory(t *testing.T) {
	n := newTestNode(t, 100, 600, 6)
	sv := NewServer(n.csr, n.feats, n.g.NumTypes, n.model, NodeConfig{Workers: 2})
	remote, err := NewRemoteFleet(n.csr, n.feats, n.g.NumTypes, n.model, n.plan, fleetConfig(), []string{serve(t, sv)})
	if err != nil {
		t.Fatalf("NewRemoteFleet: %v", err)
	}
	defer remote.Close()
	idle := &fault.Schedule{Seed: 1, Sites: map[string]fault.SiteConfig{fault.SiteShardRPC: {}}}
	fault.WithSchedule(idle, func() {
		rec := httptest.NewRecorder()
		sv.WriteMetrics(rec)
		var fams []string
		for _, line := range strings.Split(rec.Body.String(), "\n") {
			if fam, ok := strings.CutPrefix(line, "# TYPE "); ok {
				fams = append(fams, fam)
			}
		}
		slices.Sort(fams)
		got := strings.Join(fams, "\n") + "\n"
		want, err := os.ReadFile("testdata/metrics_daemon.txt")
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("daemon /metrics families differ from testdata/metrics_daemon.txt; got:\n%s", got)
		}
	})
}

// TestTCPFaultedForwardMatchesClean runs the one ladder over real sockets
// under a shard.rpc schedule of lost requests, corrupted replies and
// stragglers on both sides of the deadline. Faults change timing, never
// numbers: logits and the router's byte totals must equal the clean
// run's, nothing may surface as a failure — and because the faults sit at
// the transport, the discarded attempts really reached the daemons, which
// therefore served strictly more RPCs than the clean run needed.
func TestTCPFaultedForwardMatchesClean(t *testing.T) {
	n := newTestNode(t, 100, 600, 6)
	seeds := []int32{0, 13, 50, 99}
	type outcome struct {
		logits    []float32
		in, out   uint64
		daemon    float64
		resilient [4]uint64 // retries, hedges, timeouts, failures
	}
	run := func(sched *fault.Schedule) (o outcome) {
		svs := make([]*Server, 2)
		addrs := make([]string, len(svs))
		for i := range svs {
			svs[i] = NewServer(n.csr, n.feats, n.g.NumTypes, n.model, NodeConfig{Workers: 2})
			addrs[i] = serve(t, svs[i])
		}
		cfg := fleetConfig()
		cfg.Timeout = 40 * time.Millisecond
		remote, err := NewRemoteFleet(n.csr, n.feats, n.g.NumTypes, n.model, n.plan, cfg, addrs)
		if err != nil {
			t.Fatalf("NewRemoteFleet: %v", err)
		}
		defer remote.Close()
		fault.WithSchedule(sched, func() {
			for round := 0; round < 4; round++ {
				o.logits = append(o.logits, forwardData(t, remote, seeds)...)
			}
			if sched != nil {
				c := fault.Snapshot()[fault.SiteShardRPC]
				if c.Errors == 0 || c.Corrupts == 0 || c.Latencies == 0 {
					t.Fatalf("schedule fired %d errors / %d corruptions / %d stragglers; the run proves nothing", c.Errors, c.Corrupts, c.Latencies)
				}
			}
		})
		for _, st := range remote.Stats() {
			o.in += st.BytesIn
			o.out += st.BytesOut
		}
		for _, sv := range svs {
			o.daemon += daemonRPCs(t, sv)
		}
		o.resilient[0], o.resilient[1], o.resilient[2], o.resilient[3] = remote.Resilience()
		return o
	}

	clean := run(nil)
	// Spikes are jittered into [20ms, 60ms) around the 40ms deadline, so
	// some are waited out and some time out.
	faulted := run(&fault.Schedule{
		Seed: 39,
		Sites: map[string]fault.SiteConfig{
			fault.SiteShardRPC: {ErrorRate: 0.08, CorruptRate: 0.08, LatencyRate: 0.08, Delay: 40 * time.Millisecond},
		},
	})

	if clean.resilient != [4]uint64{} {
		t.Fatalf("clean run booked retries/hedges/timeouts/failures %v — the decorator is not a pass-through", clean.resilient)
	}
	for i := range clean.logits {
		if faulted.logits[i] != clean.logits[i] {
			t.Fatalf("logits[%d] = %v under faults, want %v", i, faulted.logits[i], clean.logits[i])
		}
	}
	if faulted.in != clean.in || faulted.out != clean.out {
		t.Fatalf("faulted run booked in=%d out=%d, clean run in=%d out=%d — a discarded attempt was booked",
			faulted.in, faulted.out, clean.in, clean.out)
	}
	if r := faulted.resilient; r[0] == 0 || r[1] != 0 || r[2] == 0 || r[3] != 0 {
		t.Fatalf("retries/hedges/timeouts/failures = %v, want retries and timeouts, no hedge at R=1, no failure", r)
	}
	if faulted.daemon <= clean.daemon {
		t.Fatalf("daemons served %v RPCs under faults, %v clean — corrupted and timed-out attempts never reached them",
			faulted.daemon, clean.daemon)
	}
}

// TestComputeRejectsUnorderedSets: a vertex's row in ComputeArgs.In is its
// local id, and the per-destination summation order — the numbers, not the
// timing — follows from In and Verts being strictly ascending. A request
// that breaks either, or names an input id outside the graph, must be an
// application error over the in-process conn and over a TCP daemon alike,
// leave the connection healthy, and leave the next valid reply unchanged.
func TestComputeRejectsUnorderedSets(t *testing.T) {
	n := newTestNode(t, 100, 600, 6)
	addr := startDaemon(t, n, n.model)
	remote, err := NewRemoteFleet(n.csr, n.feats, n.g.NumTypes, n.model, n.plan, fleetConfig(), []string{addr})
	if err != nil {
		t.Fatalf("NewRemoteFleet: %v", err)
	}
	t.Cleanup(remote.Close)
	local, err := NewFleet(n.csr, n.feats, n.g.NumTypes, n.model, n.plan, fleetConfig())
	if err != nil {
		t.Fatalf("NewFleet: %v", err)
	}
	t.Cleanup(local.Close)

	// A valid level-2 request (above level 1 every input row rides the
	// request): two targets plus their sampled sources.
	cfg := fleetConfig()
	verts := []int32{1, 2}
	in := append([]int32(nil), verts...)
	for _, v := range verts {
		for _, slot := range graph.DetSample(nil, n.csr, v, cfg.Fanouts[0], cfg.Seed) {
			in = append(in, n.csr.Col[slot])
		}
	}
	slices.Sort(in)
	in = slices.Compact(in)
	if len(in) < 3 {
		t.Fatalf("input set %v too small to permute", in)
	}
	rows := make([]float32, len(in)*8)
	rng := tensor.NewRNG(11)
	for i := range rows {
		rows[i] = rng.Float32()
	}
	args := func(verts, in []int32) *ComputeArgs {
		return &ComputeArgs{Level: 2, InDim: 8, OutDim: 3, Verts: verts, In: in, Rows: rows[:len(in)*8]}
	}
	last := len(in) - 1
	swapped := slices.Clone(in)
	swapped[last-1], swapped[last] = swapped[last], swapped[last-1]
	repeated := slices.Clone(in)
	repeated[last] = repeated[last-1]
	beyond := slices.Clone(in)
	beyond[last] = int32(n.g.NumVertices)
	negative := slices.Clone(in)
	negative[0] = -1

	ctx := context.Background()
	for _, c := range []struct {
		name string
		conn Conn
	}{{"in-process", local.conns[0][0]}, {"tcp", remote.conns[0][0]}} {
		want, err := c.conn.Compute(ctx, args(verts, in))
		if err != nil {
			t.Fatalf("%s: valid request: %v", c.name, err)
		}
		for _, bad := range []struct {
			name, want string
			args       *ComputeArgs
		}{
			{"unsorted In", "input set must be strictly ascending", args(verts, swapped)},
			{"repeated In", "input set must be strictly ascending", args(verts, repeated)},
			{"In beyond the graph", "input set must be strictly ascending", args(verts, beyond)},
			{"negative In", "input set must be strictly ascending", args(verts, negative)},
			{"unsorted Verts", "targets must be strictly ascending", args([]int32{2, 1}, in)},
			{"repeated Verts", "targets must be strictly ascending", args([]int32{1, 1}, in)},
		} {
			_, err := c.conn.Compute(ctx, bad.args)
			if err == nil || !strings.Contains(err.Error(), bad.want) {
				t.Fatalf("%s: %s: err = %v, want %q", c.name, bad.name, err, bad.want)
			}
			var te *TransportError
			if errors.As(err, &te) {
				t.Fatalf("%s: %s: rejection surfaced as a transport error: %v", c.name, bad.name, err)
			}
		}
		got, err := c.conn.Compute(ctx, args(verts, in))
		if err != nil {
			t.Fatalf("%s: valid request after rejections: %v", c.name, err)
		}
		if !slices.Equal(got.Rows, want.Rows) {
			t.Fatalf("%s: reply changed after rejected requests", c.name)
		}
	}
}
