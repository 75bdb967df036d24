package serve

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wisegraph/internal/fault"
	"wisegraph/internal/kernels"
	"wisegraph/internal/nn"
	"wisegraph/internal/tensor"
)

// The sharded-serving battery: the fleet must be an implementation detail
// of /predict — bitwise-identical logits at every shard count, replica
// count and worker count; per-shard caches that change performance but
// never bits; and the drain/accounting invariants holding fleet-wide
// under injected shard.rpc faults.

// predictLogits runs one Predict and returns the logits rows.
func predictLogits(t *testing.T, e *Engine, nodes []int32) [][]float32 {
	t.Helper()
	pred, err := e.Predict(context.Background(), nodes, true)
	if err != nil {
		t.Fatalf("Predict(%v): %v", nodes, err)
	}
	return pred.Logits
}

// TestShardedParityMatrix is the tentpole guarantee: logits from the
// sharded tier are bitwise-identical to the per-vertex definition run on
// each of the three engines, across 1/2/4 shards × 1/2 replicas × 1/8
// workers. Every shard rebuilds its blocks with the same deterministic
// sampler and canonical edge order, and every replica of a span is the
// same pure function of (request, model version), so not one float may
// differ — whichever replica the rotation or a hedge hands the call to.
func TestShardedParityMatrix(t *testing.T) {
	const v = 60
	ds := testDataset(t, v, 300, 12, 5, 2, 11)
	m := testModel(t, ds, nn.RGCN)
	single := testEngine(t, ds, m, Options{Workers: 1, Seed: 9})

	requests := [][]int32{
		{0, 7, 59},
		{3, 3, 12, 30},
		{58, 1, 44, 44, 2},
	}
	want := make(map[string][][][]float32)
	for _, engine := range kernels.EngineNames() {
		ref := newPerVertexRef(t, ds, m, single, engine)
		for _, nodes := range requests {
			want[engine] = append(want[engine], ref.logits(t, nodes))
		}
	}

	for _, shards := range []int{1, 2, 4} {
		for _, replicas := range []int{1, 2} {
			for _, engine := range kernels.EngineNames() {
				for _, workers := range []int{1, 8} {
					name := fmt.Sprintf("shards=%d/r=%d/%s/workers=%d", shards, replicas, engine, workers)
					t.Run(name, func(t *testing.T) {
						e := testEngine(t, ds, m, Options{
							Shards: shards, Replicas: replicas, Workers: workers,
							Seed: 9, Plan: single.Plan(),
						})
						if (shards > 1 || replicas > 1) && e.Fleet() == nil {
							t.Fatal("sharded options built no fleet")
						}
						if fl := e.Fleet(); fl != nil && fl.Replicas() != replicas {
							t.Fatalf("fleet has %d replicas, want %d", fl.Replicas(), replicas)
						}
						for i, nodes := range requests {
							got := predictLogits(t, e, nodes)
							for j := range got {
								for k := range got[j] {
									if got[j][k] != want[engine][i][j][k] {
										t.Fatalf("request %d node %d logit %d: %v != %s reference %v",
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
}

// TestShardedCacheParityAndShortCircuit pins the per-shard cache: a
// repeated request returns bitwise-identical logits, and once the seed
// frontier is fully cached the router short-circuits — the repeat issues
// zero Compute RPCs (the top-down probe finds every top-level row shard-
// side, so nothing below ever expands).
func TestShardedCacheParityAndShortCircuit(t *testing.T) {
	const v = 60
	ds := testDataset(t, v, 240, 12, 5, 1, 4)
	m := testModel(t, ds, nn.SAGE)
	ref := testEngine(t, ds, m, Options{Workers: 1, Seed: 13})
	nodes := []int32{2, 17, 40, 55}
	want := predictLogits(t, ref, nodes)

	e := testEngine(t, ds, m, Options{
		Shards: 4, Workers: 2, Seed: 13, Plan: ref.Plan(),
		CacheBudget: 4 << 20,
	})
	computes := func() uint64 {
		var n uint64
		for _, ss := range e.Fleet().Stats() {
			n += ss.Computes
		}
		return n
	}
	first := predictLogits(t, e, nodes)
	afterFirst := computes()
	if afterFirst == 0 {
		t.Fatal("cold request issued no Compute RPCs")
	}
	second := predictLogits(t, e, nodes)
	if got := computes(); got != afterFirst {
		t.Fatalf("fully cached repeat issued %d Compute RPCs", got-afterFirst)
	}
	for j := range want {
		for k := range want[j] {
			if first[j][k] != want[j][k] || second[j][k] != want[j][k] {
				t.Fatalf("cached logits diverge at row %d col %d: %v / %v vs %v",
					j, k, first[j][k], second[j][k], want[j][k])
			}
		}
	}
	st := e.Stats()
	if !st.CacheEnabled || st.CacheHits == 0 {
		t.Fatalf("fleet cache recorded no hits (enabled=%v hits=%d)", st.CacheEnabled, st.CacheHits)
	}
	if st.Shards != 4 || len(st.PerShard) != 4 {
		t.Fatalf("snapshot shards=%d perShard=%d, want 4/4", st.Shards, len(st.PerShard))
	}
}

// TestCacheWarmFirstHit pins the -cache-warm contract in both serving
// modes: after startup warm-up of the top-K in-degree vertices, the very
// first request already hits the cache.
func TestCacheWarmFirstHit(t *testing.T) {
	const v = 50
	ds := testDataset(t, v, 200, 10, 4, 1, 8)
	m := testModel(t, ds, nn.SAGE)
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			e := testEngine(t, ds, m, Options{
				Shards: shards, Workers: 1, Seed: 21,
				CacheBudget: 4 << 20, CacheWarm: v,
			})
			if hits := e.Stats().CacheHits; hits != 0 {
				t.Fatalf("warm-up itself recorded %d hits; wanted a cold-miss fill", hits)
			}
			predictLogits(t, e, []int32{0, 25, 49})
			st := e.Stats()
			if st.CacheHits == 0 {
				t.Fatal("first request after warm-up hit nothing")
			}
		})
	}
}

// TestCacheWarmValidation: warm-up without a cache to warm is a
// configuration error, not a silent no-op.
func TestCacheWarmValidation(t *testing.T) {
	ds := testDataset(t, 20, 60, 8, 3, 1, 2)
	m := testModel(t, ds, nn.SAGE)
	if _, err := NewEngine(ds, m, Options{CacheWarm: 5}); err == nil {
		t.Fatal("CacheWarm without CacheBudget accepted")
	}
}

// TestShardedChaosFleetDrain drives the fleet under injected shard.rpc
// faults — errors, and stragglers the tight ShardTimeout splits into
// ones waited out and real timeouts — and proves the fleet-wide drain
// invariant: every admitted request answered exactly once, router
// in-flight AND every shard's in-flight at zero after shutdown.
func TestShardedChaosFleetDrain(t *testing.T) {
	const vertices = 80
	ds := testDataset(t, vertices, 320, 10, 4, 1, 31)
	e := testEngine(t, ds, testModel(t, ds, nn.SAGE), Options{
		Shards: 4, Workers: 2, BatchCap: 8, QueueDepth: 64, Seed: 17,
		ShardTimeout: 2 * time.Millisecond,
	})
	sched := &fault.Schedule{
		Seed: 4242,
		Sites: map[string]fault.SiteConfig{
			fault.SiteShardRPC: {ErrorRate: 0.05, LatencyRate: 0.10, Delay: 2 * time.Millisecond},
		},
	}
	const clients, perClient = 8, 40
	var ok, injected, shed, expired, other atomic.Int64
	fault.WithSchedule(sched, func() {
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				rng := tensor.NewRNG(uint64(c)*131 + 7)
				for i := 0; i < perClient; i++ {
					_, err := e.Predict(context.Background(), []int32{int32(rng.Intn(vertices))}, false)
					switch {
					case err == nil:
						ok.Add(1)
					case errors.Is(err, ErrOverloaded):
						shed.Add(1)
					case errors.Is(err, context.DeadlineExceeded):
						expired.Add(1)
					case fault.IsInjected(err):
						injected.Add(1)
					default:
						other.Add(1)
						t.Errorf("unexpected error class: %v", err)
					}
				}
			}(c)
		}
		wg.Wait()

		st := chaosInvariant(t, e)
		if got := ok.Load() + injected.Load() + shed.Load() + expired.Load() + other.Load(); got != clients*perClient {
			t.Fatalf("request outcomes %d, want %d — a request vanished", got, clients*perClient)
		}
		if ok.Load() == 0 {
			t.Fatal("no request succeeded under a mild fault schedule")
		}
		retries, hedges, timeouts, _ := e.Fleet().Resilience()
		if retries == 0 {
			t.Fatal("injected rpc errors produced no retries")
		}
		if hedges+timeouts == 0 {
			t.Fatal("injected stragglers produced neither hedges nor timeouts")
		}
		if st.ShardInFlight != 0 {
			t.Fatalf("shard in-flight %d after settle", st.ShardInFlight)
		}

		// The SIGTERM half: drain the engine under the still-active fault
		// schedule and assert the invariant fleet-wide.
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := e.Shutdown(ctx); err != nil {
			t.Fatalf("Shutdown under faults: %v", err)
		}
		if n := e.InFlight(); n != 0 {
			t.Fatalf("router in-flight %d after drain", n)
		}
		if n := e.Fleet().InFlight(); n != 0 {
			t.Fatalf("fleet in-flight %d after drain", n)
		}
	})
}

// TestShardedReloadCoherence pins version coherence across the fleet: a
// checkpoint reload mid-traffic flushes every shard's cache and no
// request ever observes a torn parameter set — logits always equal a
// quiet single-node forward under whichever version served them.
func TestShardedReloadCoherence(t *testing.T) {
	const v = 50
	ds := testDataset(t, v, 200, 10, 4, 1, 19)
	m := testModel(t, ds, nn.SAGE)
	ref := testEngine(t, ds, m, Options{Workers: 1, Seed: 23})
	nodes := []int32{5, 11, 33}
	before := predictLogits(t, ref, nodes)

	m2 := testModel(t, ds, nn.SAGE)
	rng := tensor.NewRNG(99)
	for _, p := range m2.Params() {
		d := p.Value.Data()
		for i := range d {
			d[i] += 0.05 * rng.Float32()
		}
	}
	ref2 := testEngine(t, ds, m2, Options{Workers: 1, Seed: 23, Plan: ref.Plan()})
	after := predictLogits(t, ref2, nodes)

	e := testEngine(t, ds, m, Options{
		Shards: 2, Workers: 2, Seed: 23, Plan: ref.Plan(), CacheBudget: 1 << 20,
	})
	got := predictLogits(t, e, nodes)
	for j := range before {
		for k := range before[j] {
			if got[j][k] != before[j][k] {
				t.Fatalf("pre-reload row %d col %d: %v != %v", j, k, got[j][k], before[j][k])
			}
		}
	}
	if err := e.Reload(m2); err != nil {
		t.Fatalf("Reload: %v", err)
	}
	got = predictLogits(t, e, nodes)
	for j := range after {
		for k := range after[j] {
			if got[j][k] != after[j][k] {
				t.Fatalf("post-reload row %d col %d: %v != %v (stale cache or torn params)",
					j, k, got[j][k], after[j][k])
			}
		}
	}
}

// TestCacheWarmSelectionEquivalence pins the warm-up order: for every k,
// hottestVertices returns the first k vertices of the hottest-first order
// (in-degree descending, id ascending on ties).
func TestCacheWarmSelectionEquivalence(t *testing.T) {
	const v = 200
	ds := testDataset(t, v, 900, 8, 3, 1, 17)
	m := testModel(t, ds, nn.SAGE)
	e := testEngine(t, ds, m, Options{Workers: 1, Seed: 3})

	deg := func(x int32) int32 { return e.csr.RowPtr[x+1] - e.csr.RowPtr[x] }
	ref := make([]int32, v)
	for i := range ref {
		ref[i] = int32(i)
	}
	sort.Slice(ref, func(a, b int) bool {
		if deg(ref[a]) != deg(ref[b]) {
			return deg(ref[a]) > deg(ref[b])
		}
		return ref[a] < ref[b]
	})

	for _, k := range []int{0, 1, 2, 3, 7, v / 4, v / 2, v} {
		got := e.hottestVertices(k)
		if len(got) != k {
			t.Fatalf("k=%d: returned %d vertices", k, len(got))
		}
		for i := range got {
			if got[i] != ref[i] {
				t.Fatalf("k=%d: position %d is vertex %d (deg %d), want %d (deg %d)",
					k, i, got[i], deg(got[i]), ref[i], deg(ref[i]))
			}
		}
	}
}
