package serve

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"wisegraph/internal/dataset"
	"wisegraph/internal/kernels"
	"wisegraph/internal/nn"
	"wisegraph/internal/obs"
	"wisegraph/internal/tensor"
)

// The cross-process battery: real wisegraph-shard daemons on localhost
// TCP must serve logits bitwise-identical to single-node serving — at
// every (shards × replicas) point, including across a SIGKILLed replica
// mid-load — and a SIGTERM must drain them to in-flight=0. These are the
// only tests that cross a process boundary; everything wire-level below
// is covered in internal/shard.

// buildShardBin compiles cmd/wisegraph-shard once per calling test.
func buildShardBin(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "wisegraph-shard")
	build := exec.Command("go", "build", "-o", bin, "wisegraph/cmd/wisegraph-shard")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building wisegraph-shard: %v\n%s", err, out)
	}
	return bin
}

// shardDaemon is one spawned wisegraph-shard process.
type shardDaemon struct {
	cmd  *exec.Cmd
	addr string

	mu    sync.Mutex
	out   []string
	maddr string // metrics listen address, if -metrics-addr was given
	done  chan struct{}
}

// startShardDaemon spawns the built daemon binary with flags that mirror
// exactly what the router-side test reconstructs in-process, and waits
// for its listen address. extra flags are appended (e.g. -metrics-addr).
func startShardDaemon(t *testing.T, bin string, extra ...string) *shardDaemon {
	t.Helper()
	d := &shardDaemon{done: make(chan struct{})}
	args := []string{
		"-dataset", "AR", "-scale", "400", "-seed", "1", "-noise", "0.8",
		"-model", "RGCN", "-hidden", "16", "-layers", "2",
		"-addr", "127.0.0.1:0", "-workers", "2",
	}
	d.cmd = exec.Command(bin, append(args, extra...)...)
	stdout, err := d.cmd.StdoutPipe()
	if err != nil {
		t.Fatalf("stdout pipe: %v", err)
	}
	d.cmd.Stderr = d.cmd.Stdout
	if err := d.cmd.Start(); err != nil {
		t.Fatalf("starting wisegraph-shard: %v", err)
	}
	addrCh := make(chan string, 1)
	go func() {
		defer close(d.done)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			d.mu.Lock()
			d.out = append(d.out, line)
			if a, ok := strings.CutPrefix(line, "wisegraph-shard metrics on "); ok {
				d.maddr = a
			}
			d.mu.Unlock()
			if a, ok := strings.CutPrefix(line, "wisegraph-shard listening on "); ok {
				addrCh <- a
			}
		}
	}()
	t.Cleanup(func() {
		d.cmd.Process.Kill()
		d.cmd.Wait()
	})
	select {
	case d.addr = <-addrCh:
	case <-time.After(30 * time.Second):
		t.Fatalf("wisegraph-shard never reported a listen address; output:\n%s", d.output())
	}
	return d
}

// metricsAddr waits for the daemon to report its /metrics listener.
func (d *shardDaemon) metricsAddr(t *testing.T) string {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		d.mu.Lock()
		a := d.maddr
		d.mu.Unlock()
		if a != "" {
			return a
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("daemon never reported a metrics address; output:\n%s", d.output())
	return ""
}

func (d *shardDaemon) output() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.Join(d.out, "\n")
}

// drain sends SIGTERM and asserts the daemon reports a clean drain.
func (d *shardDaemon) drain(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("SIGTERM: %v", err)
	}
	select {
	case <-d.done:
	case <-time.After(30 * time.Second):
		t.Fatalf("daemon did not exit after SIGTERM; output:\n%s", d.output())
	}
	d.cmd.Wait()
	if !strings.Contains(d.output(), "drained: in-flight=0") {
		t.Fatalf("daemon did not drain cleanly; output:\n%s", d.output())
	}
}

// TestTCPCrossProcessBitwise is the end-to-end acceptance test for the
// TCP transport: spawn real wisegraph-shard processes, point a serve
// engine at them with -shard-addrs semantics, and demand logits bitwise-
// identical to the per-vertex definition run on every engine at 1/2/4
// process-shards × 1/2 replicas (R=2 is held to the default engine's
// definition only: the engines agree with each other at R=1 already).
// Both ends reconstruct the AR replica and the untrained RGCN checkpoint
// from the same flags, and the Hello handshake (parameter hash,
// recomputed boundaries, model shape, replica identity) proves it before
// any RPC.
func TestTCPCrossProcessBitwise(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes; skipped in -short")
	}
	bin := buildShardBin(t)

	// The router side: the same dataset and checkpoint the daemon flags
	// reconstruct (LoadDataset and loadModel are deterministic in these
	// parameters — the ParamSum handshake would catch any drift).
	ds, err := dataset.Load("AR", dataset.Options{Scale: 400, Seed: 1, Homophily: 0.85, FeatureNoise: 0.8})
	if err != nil {
		t.Fatalf("dataset: %v", err)
	}
	m, err := nn.NewModel(nn.Config{
		Kind: nn.RGCN, InDim: ds.Dim(), Hidden: 16, OutDim: ds.Classes(),
		Layers: 2, NumTypes: ds.Graph.NumTypes, Seed: 1,
	})
	if err != nil {
		t.Fatalf("NewModel: %v", err)
	}

	base := Options{Workers: 2, Seed: 9, Fanouts: []int{4, 4}, ShardTimeout: 10 * time.Second}
	single := testEngine(t, ds, m, base)
	v := int32(ds.Graph.NumVertices)
	requests := [][]int32{
		{0, 5, v - 1},
		{v / 2, 3, 3, v / 3},
	}
	want := make(map[string][][][]float32)
	for _, engine := range kernels.EngineNames() {
		ref := newPerVertexRef(t, ds, m, single, engine)
		for _, nodes := range requests {
			want[engine] = append(want[engine], ref.logits(t, nodes))
		}
	}

	// overTCP serves requests through fresh daemons (a daemon's identity is
	// sticky to the first Hello it accepts, and the replica id rides in the
	// Hello), then drains them.
	overTCP := func(t *testing.T, shards, replicas int) [][][]float32 {
		daemons := make([]*shardDaemon, shards*replicas)
		opts := base
		opts.Replicas = replicas
		opts.Plan = single.Plan()
		opts.ShardAddrs = make([]string, len(daemons))
		for i := range daemons {
			daemons[i] = startShardDaemon(t, bin)
			opts.ShardAddrs[i] = daemons[i].addr
		}
		e, err := NewEngine(ds, m, opts)
		if err != nil {
			t.Fatalf("NewEngine over TCP: %v", err)
		}
		if fl := e.Fleet(); fl == nil || !fl.Remote() {
			t.Fatal("shard addresses built no remote fleet")
		} else if fl.Size() != shards || fl.Replicas() != replicas {
			t.Fatalf("fleet is %d spans x %d replicas, want %dx%d",
				fl.Size(), fl.Replicas(), shards, replicas)
		}
		got := make([][][]float32, len(requests))
		for i, nodes := range requests {
			got[i] = predictLogits(t, e, nodes)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := e.Shutdown(ctx); err != nil {
			t.Fatalf("shutdown: %v", err)
		}
		for _, d := range daemons {
			d.drain(t)
		}
		return got
	}

	for _, shards := range []int{1, 2, 4} {
		served := make(map[int][][][]float32) // by replica count
		for _, engine := range kernels.EngineNames() {
			for _, replicas := range []int{1, 2} {
				if replicas > 1 && engine != kernels.EngineNames()[0] {
					continue // R=2 against the default engine only
				}
				t.Run(fmt.Sprintf("shards=%d/%s/r=%d", shards, engine, replicas), func(t *testing.T) {
					if served[replicas] == nil {
						served[replicas] = overTCP(t, shards, replicas)
					}
					for i, got := range served[replicas] {
						for j := range got {
							for k := range got[j] {
								if got[j][k] != want[engine][i][j][k] {
									t.Fatalf("request %d node %d logit %d: %v over TCP, want %s reference %v",
										i, j, k, got[j][k], engine, want[engine][i][j][k])
								}
							}
						}
					}
				})
			}
		}
	}
}

// TestReplicaFailoverBitwise is the chaos half of the replica tentpole:
// 2 spans × 2 replicas of real daemon processes under continuous load,
// one replica SIGKILLed mid-batch. Not one request may error, not one
// logit may differ from single-node serving, the router's health table
// must demote the dead replica, a survivor's /metrics endpoint must
// scrape as valid Prometheus 0.0.4 text, and the survivors must still
// drain to in-flight=0 on SIGTERM.
func TestReplicaFailoverBitwise(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes; skipped in -short")
	}
	bin := buildShardBin(t)

	ds, err := dataset.Load("AR", dataset.Options{Scale: 400, Seed: 1, Homophily: 0.85, FeatureNoise: 0.8})
	if err != nil {
		t.Fatalf("dataset: %v", err)
	}
	m, err := nn.NewModel(nn.Config{
		Kind: nn.RGCN, InDim: ds.Dim(), Hidden: 16, OutDim: ds.Classes(),
		Layers: 2, NumTypes: ds.Graph.NumTypes, Seed: 1,
	})
	if err != nil {
		t.Fatalf("NewModel: %v", err)
	}

	base := Options{Workers: 2, Seed: 9, Fanouts: []int{4, 4}, ShardTimeout: 10 * time.Second}
	ref := testEngine(t, ds, m, base)
	v := int32(ds.Graph.NumVertices)
	requests := [][]int32{
		{0, 5, v - 1},
		{v / 2, 3, 3, v / 3},
		{7, v - 2, v / 4},
	}
	want := make([][][]float32, len(requests))
	for i, nodes := range requests {
		want[i] = predictLogits(t, ref, nodes)
	}

	// 2 spans × 2 replicas: address order is AssignReplicas order — index
	// s*R+r, so daemons[1] is span 0, replica 1 (the kill target).
	const shards, replicas = 2, 2
	daemons := make([]*shardDaemon, shards*replicas)
	opts := base
	opts.Replicas = replicas
	opts.Plan = ref.Plan()
	opts.ShardAddrs = make([]string, len(daemons))
	for i := range daemons {
		daemons[i] = startShardDaemon(t, bin, "-metrics-addr", "127.0.0.1:0")
		opts.ShardAddrs[i] = daemons[i].addr
	}
	e, err := NewEngine(ds, m, opts)
	if err != nil {
		t.Fatalf("NewEngine over TCP: %v", err)
	}

	// Continuous load from 4 clients; every reply is checked bitwise
	// against the single-node reference the whole way through the kill.
	stop := make(chan struct{})
	var served, mismatches atomic.Int64
	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := tensor.NewRNG(uint64(c)*977 + 11)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				req := rng.Intn(len(requests))
				pred, err := e.Predict(context.Background(), requests[req], true)
				if err != nil {
					select {
					case errCh <- fmt.Errorf("client %d request %d: %w", c, i, err):
					default:
					}
					return
				}
				for j := range pred.Logits {
					for k := range pred.Logits[j] {
						if pred.Logits[j][k] != want[req][j][k] {
							mismatches.Add(1)
						}
					}
				}
				served.Add(1)
			}
		}(c)
	}

	// Let the fleet serve with all replicas up, then kill -9 span 0's
	// replica 1 mid-load. In-flight RPCs on the dying connection fail over
	// to replica 0; nothing surfaces.
	time.Sleep(400 * time.Millisecond)
	if err := daemons[1].cmd.Process.Kill(); err != nil {
		t.Fatalf("SIGKILL: %v", err)
	}
	time.Sleep(800 * time.Millisecond)
	close(stop)
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatalf("request error across replica kill: %v", err)
	default:
	}
	if n := served.Load(); n < 8 {
		t.Fatalf("only %d requests served across the kill window", n)
	}
	if n := mismatches.Load(); n != 0 {
		t.Fatalf("%d logit mismatches across replica kill — failover changed bits", n)
	}

	fl := e.Fleet()
	if dead, live := fl.Health(0, 1), fl.Health(0, 0); dead >= live {
		t.Fatalf("dead replica health %v not demoted below live %v", dead, live)
	}
	if _, _, _, failures := fl.Resilience(); failures != 0 {
		t.Fatalf("%d surfaced failures with a live replica per span", failures)
	}

	// A survivor's /metrics must scrape as valid Prometheus 0.0.4 text
	// and carry the daemon-side RPC counters.
	resp, err := http.Get("http://" + daemons[0].metricsAddr(t) + "/metrics")
	if err != nil {
		t.Fatalf("scraping survivor /metrics: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("reading /metrics: %v", err)
	}
	if got := resp.Header.Get("Content-Type"); !strings.Contains(got, "version=0.0.4") {
		t.Fatalf("metrics Content-Type %q, want text exposition 0.0.4", got)
	}
	if err := obs.ValidateExposition(strings.NewReader(string(body))); err != nil {
		t.Fatalf("survivor /metrics is not valid exposition: %v\n%s", err, body)
	}
	for _, metric := range []string{"wisegraph_node_rpcs_total", "wisegraph_node_replica", "wisegraph_node_in_flight"} {
		if !strings.Contains(string(body), metric) {
			t.Fatalf("survivor /metrics missing %s:\n%s", metric, body)
		}
	}
	if resp, err := http.Get("http://" + daemons[0].metricsAddr(t) + "/healthz"); err != nil || resp.StatusCode != 200 {
		t.Fatalf("survivor /healthz: %v (%v)", err, resp)
	} else {
		resp.Body.Close()
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := e.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	for i, d := range daemons {
		if i == 1 {
			continue // SIGKILLed; nothing drains
		}
		d.drain(t)
		if !strings.Contains(d.output(), "replica=") {
			t.Fatalf("survivor %d drain line carries no replica identity:\n%s", i, d.output())
		}
	}
}
