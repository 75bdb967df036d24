package serve

import (
	"context"
	"math"
	"sort"
	"testing"

	"wisegraph/internal/dataset"
	"wisegraph/internal/nn"
	"wisegraph/internal/tensor"
)

// The two tests below are the cache gates: what the hot-vertex cache and
// the fleet's aggregate cache capacity buy, stated as work not done —
// cache hits, Compute RPCs, evictions and modeled device FLOPs per
// request — over one seeded Zipf-1.2 request stream served one request
// per batch by one worker. No clock is read, so the counts do not depend
// on the machine: they repeat exactly, except that a cache under eviction
// pressure picks victims from a randomized map walk and its counts move
// by a few percent between runs. Each threshold sits at least 2× away
// from the value observed (in the comments). Bitwise equality of the
// logits is TestCacheParityBitwise's and TestShardedParityBitwise's job;
// these guard the win itself.

// zipfStream returns count node ids drawn with P(id r) ∝ 1/(r+1)^s from
// [0, n), the popularity skew the cache is built for.
func zipfStream(n int, s float64, seed uint64, count int) []int32 {
	cum := make([]float64, n)
	total := 0.0
	for r := range cum {
		total += 1 / math.Pow(float64(r+1), s)
		cum[r] = total
	}
	rng := tensor.NewRNG(seed)
	ids := make([]int32, count)
	for i := range ids {
		ids[i] = int32(sort.SearchFloat64s(cum, rng.Float64()*total))
	}
	return ids
}

// serveZipf builds an untrained SAGE engine over the AR replica at the
// given scale, answers a Zipf-1.2 stream of single-node requests one at a
// time and returns the counters.
func serveZipf(t *testing.T, scale, hidden, requests int, o Options) Snapshot {
	t.Helper()
	ds, err := dataset.Load("AR", dataset.Options{Scale: scale, Seed: 1, Homophily: 0.85, FeatureNoise: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	m, err := nn.NewModel(nn.Config{
		Kind: nn.SAGE, InDim: ds.Dim(), Hidden: hidden, OutDim: ds.Classes(), Layers: 3, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	o.Workers, o.BatchCap, o.Seed = 1, 1, 1
	e := testEngine(t, ds, m, o)
	for _, id := range zipfStream(ds.Graph.NumVertices, 1.2, 7, requests) {
		if _, err := e.Predict(context.Background(), []int32{id}, false); err != nil {
			t.Fatal(err)
		}
	}
	return e.Stats()
}

// computes sums the router-side Compute RPC count over the fleet.
func computes(st Snapshot) (n uint64) {
	for _, ss := range st.PerShard {
		n += ss.Computes
	}
	return n
}

// TestCacheGateZipf: under Zipf-1.2 skew a cache that holds the whole row
// set (AR/1600, 64 MiB) must turn most of the forward into lookups.
func TestCacheGateZipf(t *testing.T) {
	const requests = 2000
	off := serveZipf(t, 1600, 64, requests, Options{})
	on := serveZipf(t, 1600, 64, requests, Options{CacheBudget: 64 << 20})
	t.Logf("uncached: computes=%d flops/req=%.0f", computes(off), off.FLOPsPerRequest)
	t.Logf("cached:   computes=%d flops/req=%.0f hit-rate=%.3f", computes(on), on.FLOPsPerRequest, on.CacheHitRate)
	// Uncached, every request pays one Compute per layer.
	if got := computes(off); got != 3*requests {
		t.Fatalf("uncached Compute RPCs = %d, want %d", got, 3*requests)
	}
	if on.CacheHitRate < 0.30 { // observed 0.624
		t.Errorf("cached hit rate %.3f, want ≥ 0.30", on.CacheHitRate)
	}
	if got := computes(on); 5*got > 2*computes(off) { // observed 1048 of 6000
		t.Errorf("cached Compute RPCs = %d, want ≤ %d (2/5 of uncached)", got, 2*computes(off)/5)
	}
	if 10*on.FLOPsPerRequest > off.FLOPsPerRequest { // observed 40 851 vs 1 559 878
		t.Errorf("cached FLOPs/request %.0f, want ≤ 1/10 of uncached %.0f", on.FLOPsPerRequest, off.FLOPsPerRequest)
	}
}

// TestCacheGateCapacity: the cache budget is per shard, so a fleet holds a
// hot set no single node can. At 1 MiB per shard (AR/100, hidden 128,
// fan-out 15) one shard is capacity-bound and evicts all the way through
// the stream; four shards hold the working set and recompute far less.
func TestCacheGateCapacity(t *testing.T) {
	o := Options{CacheBudget: 1 << 20, Fanouts: []int{15, 15, 15}}
	one := serveZipf(t, 100, 128, 3000, o)
	o.Shards = 4
	four := serveZipf(t, 100, 128, 3000, o)
	t.Logf("1 shard:  evicted=%d flops/req=%.0f hit-rate=%.3f", one.CacheEvicted, one.FLOPsPerRequest, one.CacheHitRate)
	t.Logf("4 shards: evicted=%d flops/req=%.0f hit-rate=%.3f", four.CacheEvicted, four.FLOPsPerRequest, four.CacheHitRate)
	if one.CacheEvicted < 5000 { // observed ≈ 14 100: the premise, a capacity-bound node
		t.Fatalf("1 shard evicted %d rows, want ≥ 5000: the budget no longer binds", one.CacheEvicted)
	}
	if 10*four.CacheEvicted > one.CacheEvicted { // observed 0
		t.Errorf("4 shards evicted %d rows, want ≤ 1/10 of one shard's %d", four.CacheEvicted, one.CacheEvicted)
	}
	if 2*four.FLOPsPerRequest > one.FLOPsPerRequest { // observed 87 047 vs ≈ 370 000
		t.Errorf("4-shard FLOPs/request %.0f, want ≤ 1/2 of one shard's %.0f", four.FLOPsPerRequest, one.FLOPsPerRequest)
	}
}
