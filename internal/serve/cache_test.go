package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wisegraph/internal/fault"
	"wisegraph/internal/kernels"
	"wisegraph/internal/nn"
	"wisegraph/internal/tensor"
)

// TestCacheParityBitwise is the acceptance check for the hot-vertex
// cache: for every worker count, a cache-enabled engine must return
// logits BITWISE-equal to a cache-disabled one, and both to the
// per-vertex definition run on each execution engine, on an overlapping
// (Zipf-ish skewed) request stream — while actually hitting the cache, so
// the equality is exercised on spliced rows, not on an idle cache. The
// serving forward is a pure function per (vertex, level), so cache size
// is a pure performance knob.
func TestCacheParityBitwise(t *testing.T) {
	const v = 60
	ds := testDataset(t, v, 240, 12, 5, 1, 1)
	m := testModel(t, ds, nn.SAGE)

	for _, eng := range kernels.EngineNames() {
		for _, workers := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/w%d", eng, workers), func(t *testing.T) {
				base := Options{Workers: workers, Seed: 3}
				off := testEngine(t, ds, m, base)
				withCache := base
				withCache.CacheBudget = 1 << 20
				withCache.Plan = off.Plan() // identical frozen plan: isolate the cache
				on := testEngine(t, ds, m, withCache)
				ref := newPerVertexRef(t, ds, m, off, eng)

				prng := rand.New(rand.NewSource(99))
				for i := 0; i < 40; i++ {
					nodes := make([]int32, 1+prng.Intn(4))
					for j := range nodes {
						// Skewed id space: most requests land on a hot
						// head so later iterations run against a warm
						// cache with real cross-request reuse.
						if prng.Intn(4) > 0 {
							nodes[j] = int32(prng.Intn(8))
						} else {
							nodes[j] = int32(prng.Intn(v))
						}
					}
					want, err := off.Predict(context.Background(), nodes, true)
					if err != nil {
						t.Fatalf("iter %d uncached: %v", i, err)
					}
					got, err := on.Predict(context.Background(), nodes, true)
					if err != nil {
						t.Fatalf("iter %d cached: %v", i, err)
					}
					def := ref.logits(t, nodes)
					for j := range nodes {
						if got.Classes[j] != want.Classes[j] {
							t.Fatalf("iter %d node %d: class %d != %d", i, nodes[j], got.Classes[j], want.Classes[j])
						}
						for k := range want.Logits[j] {
							if got.Logits[j][k] != want.Logits[j][k] {
								t.Fatalf("iter %d node %d logit %d: cached %v != uncached %v (bitwise)",
									i, nodes[j], k, got.Logits[j][k], want.Logits[j][k])
							}
							if want.Logits[j][k] != def[j][k] {
								t.Fatalf("iter %d node %d logit %d: uncached %v != %s reference %v",
									i, nodes[j], k, want.Logits[j][k], eng, def[j][k])
							}
						}
					}
				}
				st := on.Stats()
				if !st.CacheEnabled || st.CacheHits == 0 {
					t.Fatalf("cache never hit (enabled=%v hits=%d) — parity was not exercised", st.CacheEnabled, st.CacheHits)
				}
				if off.Stats().CacheEnabled {
					t.Fatal("cache-disabled engine reports CacheEnabled")
				}
			})
		}
	}
}

// TestCacheReloadInvalidationParity: a checkpoint reload must flush every
// cached row, and post-reload predictions must be bitwise-equal to a
// fresh engine serving the new parameters — no stale embedding can leak
// through the cache across a parameter swap.
func TestCacheReloadInvalidationParity(t *testing.T) {
	const v = 60
	ds := testDataset(t, v, 240, 12, 5, 1, 1)
	mA := testModel(t, ds, nn.SAGE)

	// mB: same architecture (Reload requires identical Cfg), different
	// parameter values.
	mB := testModel(t, ds, nn.SAGE)
	alt, err := nn.NewModel(nn.Config{
		Kind: nn.SAGE, InDim: ds.Dim(), Hidden: 8, OutDim: ds.Classes(),
		Layers: 2, NumTypes: ds.Graph.NumTypes, Seed: 4242,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := mB.CopyParamsFrom(alt); err != nil {
		t.Fatal(err)
	}

	e := testEngine(t, ds, mA, Options{Workers: 2, Seed: 3, CacheBudget: 1 << 20})
	nodes := []int32{0, 3, 7, 11, 42}

	// Warm the cache on model A.
	var beforeReload *Prediction
	for i := 0; i < 10; i++ {
		if beforeReload, err = e.Predict(context.Background(), nodes, true); err != nil {
			t.Fatalf("warmup: %v", err)
		}
	}
	if st := e.Stats(); st.CacheHits == 0 {
		t.Fatal("warmup produced no cache hits; the reload test proves nothing")
	}

	if err := e.Reload(mB); err != nil {
		t.Fatalf("Reload: %v", err)
	}
	got, err := e.Predict(context.Background(), nodes, true)
	if err != nil {
		t.Fatalf("post-reload predict: %v", err)
	}

	// Ground truth: a fresh engine that has only ever seen model B.
	fresh := testEngine(t, ds, mB, Options{Workers: 1, Seed: 3, Plan: e.Plan()})
	want, err := fresh.Predict(context.Background(), nodes, true)
	if err != nil {
		t.Fatalf("fresh predict: %v", err)
	}
	changed := false
	for j := range nodes {
		for k := range want.Logits[j] {
			if got.Logits[j][k] != want.Logits[j][k] {
				t.Fatalf("node %d logit %d: post-reload %v != fresh-engine %v (stale cache row leaked)",
					nodes[j], k, got.Logits[j][k], want.Logits[j][k])
			}
			if got.Logits[j][k] != beforeReload.Logits[j][k] {
				changed = true
			}
		}
	}
	if !changed {
		t.Fatal("reload changed no logit — parameters did not actually swap")
	}
	if st := e.Stats(); st.CacheFlushes != 1 {
		t.Fatalf("cache flushes = %d after one reload, want 1", st.CacheFlushes)
	}

	// A reload across architectures must be refused outright.
	bad, err := nn.NewModel(nn.Config{
		Kind: nn.SAGE, InDim: ds.Dim(), Hidden: 16, OutDim: ds.Classes(),
		Layers: 2, NumTypes: ds.Graph.NumTypes, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Reload(bad); err == nil {
		t.Fatal("Reload accepted a model with a different architecture")
	}
}

// TestOptionsValidate pins the descriptive-rejection contract: broken
// configurations fail engine construction with an error naming the knob,
// instead of panicking later or silently misbehaving.
func TestOptionsValidate(t *testing.T) {
	const layers = 2
	cases := []struct {
		name string
		opts Options
		ok   bool
	}{
		{"zero-values-select-defaults", Options{}, true},
		{"negative-workers", Options{Workers: -1}, false},
		{"negative-batch-cap", Options{BatchCap: -4}, false},
		{"negative-queue-depth", Options{QueueDepth: -1}, false},
		{"negative-deadline", Options{Deadline: -time.Second}, false},
		{"negative-cache-budget", Options{CacheBudget: -1}, false},
		{"fanouts-length-mismatch", Options{Fanouts: []int{10}}, false},
		{"zero-fanout", Options{Fanouts: []int{10, 0}}, false},
		{"valid-fanouts", Options{Fanouts: []int{10, 5}}, true},
		{"valid-cache", Options{CacheBudget: 1 << 20}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.opts.Validate(layers)
			if tc.ok && err != nil {
				t.Fatalf("Validate rejected a sane config: %v", err)
			}
			if !tc.ok && err == nil {
				t.Fatal("Validate accepted a nonsensical config")
			}
		})
	}
	// Cache with a zero-layer model is nonsense regardless of budget sign.
	if err := (Options{CacheBudget: 1}).Validate(0); err == nil {
		t.Fatal("Validate accepted a cache over a model with no layers")
	}
	// NewEngine surfaces the validation error.
	ds := testDataset(t, 20, 60, 8, 3, 1, 1)
	if _, err := NewEngine(ds, testModel(t, ds, nn.SAGE), Options{CacheBudget: -1}); err == nil {
		t.Fatal("NewEngine built an engine from an invalid config")
	}
}

// TestChaosCacheDrainInvariant re-runs the fault-schedule drain invariant
// with the hot-vertex cache enabled: injected batch faults, degraded
// retries and expired deadlines must still account for every request,
// and the cache must neither wedge the drain nor change any outcome
// class — while actually serving hits under fire.
func TestChaosCacheDrainInvariant(t *testing.T) {
	const vertices = 80
	ds := testDataset(t, vertices, 320, 10, 4, 1, 2)
	e := testEngine(t, ds, testModel(t, ds, nn.SAGE), Options{
		Workers: 2, BatchCap: 8, QueueDepth: 64, Seed: 5, CacheBudget: 1 << 20,
	})
	sched := &fault.Schedule{
		Seed: 1234,
		Sites: map[string]fault.SiteConfig{
			fault.SiteServeBatch: {ErrorRate: 0.08, LatencyRate: 0.15, Delay: 2 * time.Millisecond},
		},
	}
	const clients, perClient = 8, 40
	var ok, failed atomic.Int64
	fault.WithSchedule(sched, func() {
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				rng := tensor.NewRNG(uint64(c)*77 + 1)
				for i := 0; i < perClient; i++ {
					// Zipf-ish skew: hammer a hot head of the id space.
					n := int32(rng.Intn(vertices))
					if rng.Intn(3) > 0 {
						n = int32(rng.Intn(8))
					}
					ctx, cancel := context.WithTimeout(context.Background(), time.Second)
					_, err := e.Predict(ctx, []int32{n}, false)
					cancel()
					switch {
					case err == nil:
						ok.Add(1)
					case errors.Is(err, ErrOverloaded), errors.Is(err, context.DeadlineExceeded), fault.IsInjected(err):
						failed.Add(1)
					default:
						failed.Add(1)
						t.Errorf("unexpected error class: %v", err)
					}
				}
			}(c)
		}
		wg.Wait()

		st := chaosInvariant(t, e)
		if got := ok.Load() + failed.Load(); got != clients*perClient {
			t.Fatalf("request outcomes %d, want %d — a request vanished", got, clients*perClient)
		}
		if st.BatchFaults == 0 {
			t.Fatal("schedule injected no batch faults; chaos test proves nothing")
		}
		if ok.Load() == 0 {
			t.Fatal("no request succeeded under a mild fault schedule")
		}
		if st.CacheHits == 0 {
			t.Fatal("cache never hit under skewed chaos traffic")
		}
	})
}
