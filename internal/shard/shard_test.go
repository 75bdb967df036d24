package shard

import (
	"context"
	"strings"
	"testing"
	"time"

	"wisegraph/internal/fault"
	"wisegraph/internal/graph"
	"wisegraph/internal/joint"
	"wisegraph/internal/nn"
	"wisegraph/internal/obs"
	"wisegraph/internal/retry"
	"wisegraph/internal/tensor"
)

// testGraph builds a small random graph with a heavy degree skew toward
// low vertex ids (the shape edge-balanced placement exists for).
func testGraph(t *testing.T, v, edges int, seed uint64) *graph.Graph {
	t.Helper()
	rng := tensor.NewRNG(seed)
	g := &graph.Graph{NumVertices: v, NumTypes: 1}
	for i := 0; i < edges; i++ {
		// Quadratic skew: destination mass concentrates in low ids.
		d := rng.Intn(v) * rng.Intn(v) / v
		g.Src = append(g.Src, int32(rng.Intn(v)))
		g.Dst = append(g.Dst, int32(d))
	}
	return g
}

func testFleet(t *testing.T, g *graph.Graph, shards, workers int, budget int64) *Fleet {
	t.Helper()
	return testFleetCfg(t, g, Config{Shards: shards, Workers: workers, CacheBudget: budget})
}

// testFleetCfg fills in the fan-outs and sampler seed every test shares.
func testFleetCfg(t *testing.T, g *graph.Graph, cfg Config) *Fleet {
	t.Helper()
	const dim, classes = 8, 3
	csr := g.BuildCSRByDst()
	feats := tensor.New(g.NumVertices, dim)
	data := feats.Data()
	rng := tensor.NewRNG(5)
	for i := range data {
		data[i] = rng.Float32()
	}
	m, err := nn.NewModel(nn.Config{
		Kind: nn.SAGE, InDim: dim, Hidden: 8, OutDim: classes,
		Layers: 2, NumTypes: 1, Seed: 7,
	})
	if err != nil {
		t.Fatalf("NewModel: %v", err)
	}
	plan := joint.Search(g, m.Cfg.Kind, m.Cfg.Hidden, m.Cfg.Hidden, m.Cfg.NumTypes, joint.Options{})
	cfg.Fanouts, cfg.Seed = []int{4, 4}, 3
	f, err := NewFleet(csr, feats, g.NumTypes, m, plan, cfg)
	if err != nil {
		t.Fatalf("NewFleet: %v", err)
	}
	t.Cleanup(f.Close)
	return f
}

// TestBoundariesProperties: the bounds are monotone and cover [0, V], and
// on a skewed graph they balance owned in-edges strictly better than equal
// vertex counts would.
func TestBoundariesProperties(t *testing.T) {
	g := testGraph(t, 200, 2000, 1)
	csr := g.BuildCSRByDst()
	const n = 4
	spread := func(b []int32) int64 {
		var worst, best int64 = 0, 1 << 62
		for s := 0; s < n; s++ {
			e := int64(csr.RowPtr[b[s+1]] - csr.RowPtr[b[s]])
			if e > worst {
				worst = e
			}
			if e < best {
				best = e
			}
		}
		return worst - best
	}
	b := Boundaries(csr, n)
	if len(b) != n+1 || b[0] != 0 || b[n] != int32(g.NumVertices) {
		t.Fatalf("bounds %v malformed", b)
	}
	byVertex := make([]int32, n+1)
	for i := 0; i < n; i++ {
		if b[i] > b[i+1] {
			t.Fatalf("bounds %v not monotone", b)
		}
		byVertex[i+1] = int32((i + 1) * g.NumVertices / n)
	}
	if spread(b) >= spread(byVertex) {
		t.Fatalf("in-edge spread %d not tighter than an equal-vertex split's %d on a skewed graph",
			spread(b), spread(byVertex))
	}
}

// TestOwnershipValidation: a shard must reject any vertex outside its
// range — the router never silently reads another node's data.
func TestOwnershipValidation(t *testing.T) {
	f := testFleet(t, testGraph(t, 100, 600, 2), 4, 1, 0)
	foreign := f.bounds[1] // owned by shard 1, not shard 0
	_, err := f.conns[0][0].Expand(context.Background(), &ExpandArgs{Level: 0, Dim: 8, Verts: []int32{foreign}})
	if err == nil || !strings.Contains(err.Error(), "outside owned range") {
		t.Fatalf("foreign Expand error = %v, want ownership rejection", err)
	}
	_, err = f.conns[0][0].Compute(context.Background(), &ComputeArgs{
		Level: 1, InDim: 8, OutDim: 8,
		Verts: []int32{foreign}, In: []int32{foreign}, Rows: make([]float32, 8),
	})
	if err == nil || !strings.Contains(err.Error(), "outside owned range") {
		t.Fatalf("foreign Compute error = %v, want ownership rejection", err)
	}
	if n := f.InFlight(); n != 0 {
		t.Fatalf("in-flight %d after rejected RPCs", n)
	}
}

// TestSpansOf: a sorted frontier partitions into contiguous owner spans
// with nothing lost.
func TestSpansOf(t *testing.T) {
	f := testFleet(t, testGraph(t, 100, 600, 3), 4, 1, 0)
	verts := []int32{0, 1, int32(f.bounds[1]), int32(f.bounds[3]), 99}
	spans := f.spansOf(verts)
	covered := 0
	for _, os := range spans {
		for i := os.lo; i < os.hi; i++ {
			v := verts[i]
			if v < f.bounds[os.shard] || v >= f.bounds[os.shard+1] {
				t.Fatalf("span gave %d to shard %d owning [%d,%d)", v, os.shard,
					f.bounds[os.shard], f.bounds[os.shard+1])
			}
			covered++
		}
	}
	if covered != len(verts) {
		t.Fatalf("spans covered %d of %d vertices", covered, len(verts))
	}
}

// expandOwned issues one level-0 Expand for a vertex span 0 owns through
// the whole ladder — faultConn, issue, call — the way Forward does.
func expandOwned(f *Fleet) error {
	_, err := f.callExpand(context.Background(), 0, &ExpandArgs{Level: 0, Dim: 8, Verts: []int32{0}})
	return err
}

// TestCallLadderExhaustion: a 100% error rate burns all attempts, counts
// every retry, and surfaces the injected error — as the transport error
// the conn reported — as a failure. A lost request never reaches the
// shard.
func TestCallLadderExhaustion(t *testing.T) {
	f := testFleet(t, testGraph(t, 50, 200, 4), 2, 1, 0)
	fc := f.conns[0][0].(*faultConn)
	inner := &mangleConn{Conn: fc.Conn}
	fc.Conn = inner
	fault.WithSchedule(&fault.Schedule{
		Seed:  1,
		Sites: map[string]fault.SiteConfig{fault.SiteShardRPC: {ErrorRate: 1}},
	}, func() {
		err := expandOwned(f)
		if err == nil || !fault.IsInjected(err) || !isTransport(err) {
			t.Fatalf("exhausted call error = %v, want an injected transport error", err)
		}
	})
	if n := inner.calls.Load(); n != 0 {
		t.Fatalf("inner conn reached %d times despite 100%% request loss", n)
	}
	retries, _, _, failures := f.Resilience()
	if retries != retry.Attempts-1 || failures != 1 {
		t.Fatalf("retries=%d failures=%d, want %d/1", retries, failures, retry.Attempts-1)
	}
}

// TestCallLadderTimeout: an injected straggle is really waited for, under
// a real timer. At or past the per-RPC deadline the timer fires at the
// deadline — the spike is not slept out — and the attempt is a counted,
// retried timeout; short of the deadline the call just takes that long
// and no timeout is booked. One replica, so nothing is ever hedged.
func TestCallLadderTimeout(t *testing.T) {
	for _, tc := range []struct {
		name           string
		timeout, spike time.Duration
		wantTimeouts   bool
	}{
		{"past-deadline", time.Millisecond, 500 * time.Millisecond, true},
		{"short-of-deadline", time.Second, 4 * time.Millisecond, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := testFleetCfg(t, testGraph(t, 50, 200, 4), Config{Shards: 2, Timeout: tc.timeout})
			var elapsed time.Duration
			var spikes uint64
			fault.WithSchedule(&fault.Schedule{
				Seed: 1,
				Sites: map[string]fault.SiteConfig{
					fault.SiteShardRPC: {LatencyRate: 0.5, Delay: tc.spike},
				},
			}, func() {
				start := time.Now()
				for i := 0; i < 20; i++ {
					if err := expandOwned(f); err != nil {
						t.Fatalf("call %d failed: %v", i, err)
					}
				}
				elapsed = time.Since(start)
				spikes = fault.Snapshot()[fault.SiteShardRPC].Latencies
			})
			_, hedges, timeouts, failures := f.Resilience()
			if hedges != 0 || failures != 0 {
				t.Fatalf("hedges=%d failures=%d on a 1-replica fleet under retryable stragglers, want 0/0", hedges, failures)
			}
			// Every spike is jittered into [½, 1½)× the configured delay.
			if tc.wantTimeouts {
				if timeouts != spikes || spikes == 0 {
					t.Fatalf("%d timeouts for %d injected over-deadline straggles", timeouts, spikes)
				}
				if elapsed >= tc.spike/2 {
					t.Fatalf("20 calls took %v — a timed-out straggle was slept out", elapsed)
				}
			} else {
				if timeouts != 0 {
					t.Fatalf("%d timeouts booked though no timer reached the deadline", timeouts)
				}
				if floor := time.Duration(spikes) * tc.spike / 2; spikes == 0 || elapsed < floor {
					t.Fatalf("20 calls with %d straggles took %v, want at least %v — the spikes were not really waited for", spikes, elapsed, floor)
				}
			}
		})
	}
}

// TestFleetForwardSmoke: the fleet's forward is self-consistent across
// shard counts — the full-graph comparison against single-node serving
// lives in internal/serve's parity matrix.
func TestFleetForwardSmoke(t *testing.T) {
	g := testGraph(t, 100, 600, 6)
	seeds := []int32{0, 13, 50, 99}
	var want []float32
	for _, shards := range []int{1, 2, 4} {
		f := testFleet(t, g, shards, 2, 0)
		id := obs.NewID()
		out, idx, err := f.Forward(id, 0, seeds, obs.Begin(obs.StageSample, id))
		if err != nil {
			t.Fatalf("shards=%d Forward: %v", shards, err)
		}
		if len(idx) != len(seeds) {
			t.Fatalf("shards=%d row map has %d entries, want %d", shards, len(idx), len(seeds))
		}
		got := append([]float32(nil), out.Data()...)
		tensor.Put(out)
		if want == nil {
			want = got
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("shards=%d logits[%d] = %v, want %v (1-shard)", shards, i, got[i], want[i])
			}
		}
	}
}
