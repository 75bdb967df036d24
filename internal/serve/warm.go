package serve

import (
	"cmp"
	"slices"

	"wisegraph/internal/obs"
	"wisegraph/internal/tensor"
)

// warmCache pre-populates the hot-vertex caches before the first request
// is admitted: it runs warm-up forwards over the CacheWarm top-in-degree
// vertices (the frequency-independent prior for what Zipf-ish traffic
// will hit, and exactly what the cache's degree-amplified admission score
// favors), so every level's rows for those subtrees are computed once at
// startup instead of on the first unlucky requests. Runs synchronously in
// NewEngine, through the fleet, so each shard warms the rows of its own
// range.
func (e *Engine) warmCache() error {
	k := e.opts.CacheWarm
	v := e.ds.Graph.NumVertices
	if k > v {
		k = v
	}
	if k <= 0 {
		return nil
	}
	hot := e.hottestVertices(k)
	ver := e.modelVersion.Load()
	for lo := 0; lo < len(hot); lo += maxNodes {
		hi := lo + maxNodes
		if hi > len(hot) {
			hi = len(hot)
		}
		batchID := obs.NewID()
		logits, _, err := e.fleet.Forward(batchID, ver, hot[lo:hi], obs.Begin(obs.StageSample, batchID))
		if err != nil {
			return err
		}
		tensor.Put(logits)
	}
	return nil
}

// hottestVertices returns the k ≤ V top-in-degree vertices, hottest first,
// ties broken toward the lower id.
func (e *Engine) hottestVertices(k int) []int32 {
	order := make([]int32, e.ds.Graph.NumVertices)
	for i := range order {
		order[i] = int32(i)
	}
	deg := func(x int32) int32 { return e.csr.RowPtr[x+1] - e.csr.RowPtr[x] }
	slices.SortFunc(order, func(a, b int32) int {
		return cmp.Or(cmp.Compare(deg(b), deg(a)), cmp.Compare(a, b))
	})
	return order[:k]
}
