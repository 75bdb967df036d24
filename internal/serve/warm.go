package serve

import (
	"sort"

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
	for lo := 0; lo < len(hot); lo += e.opts.MaxNodes {
		hi := lo + e.opts.MaxNodes
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

// hottestVertices returns the k top-in-degree vertices, hottest first,
// ties broken toward the lower id. Small k runs a bounded O(V log K)
// heap selection instead of sorting every vertex — warming a few hundred
// vertices must not cost an O(V log V) sort over millions — while large
// k (a quarter of the graph or more, where the heap's constant factors
// stop paying) falls back to the full sort. Both paths produce the
// identical deterministic order.
func (e *Engine) hottestVertices(k int) []int32 {
	v := e.ds.Graph.NumVertices
	if k <= 0 {
		return nil
	}
	deg := func(x int32) int32 { return e.csr.RowPtr[x+1] - e.csr.RowPtr[x] }
	hotter := func(a, b int32) bool {
		da, db := deg(a), deg(b)
		if da != db {
			return da > db
		}
		return a < b
	}
	if k >= v/4 {
		order := make([]int32, v)
		for i := range order {
			order[i] = int32(i)
		}
		sort.Slice(order, func(a, b int) bool { return hotter(order[a], order[b]) })
		return order[:k]
	}
	// Min-heap of the k hottest seen so far, root = coldest kept: a new
	// vertex hotter than the root evicts it, everything else is skipped
	// in O(1).
	h := make([]int32, 0, k)
	down := func(i, n int) {
		for {
			c := 2*i + 1
			if c >= n {
				return
			}
			if c+1 < n && hotter(h[c], h[c+1]) {
				c++
			}
			if !hotter(h[i], h[c]) {
				return
			}
			h[i], h[c] = h[c], h[i]
			i = c
		}
	}
	up := func(i int) {
		for i > 0 {
			p := (i - 1) / 2
			if !hotter(h[p], h[i]) {
				return
			}
			h[i], h[p] = h[p], h[i]
			i = p
		}
	}
	for x := int32(0); x < int32(v); x++ {
		if len(h) < k {
			h = append(h, x)
			up(len(h) - 1)
		} else if hotter(x, h[0]) {
			h[0] = x
			down(0, len(h))
		}
	}
	// Heap-sort in place: repeatedly move the coldest kept to the tail,
	// leaving the slice hottest-first.
	for i := len(h) - 1; i > 0; i-- {
		h[0], h[i] = h[i], h[0]
		down(0, i)
	}
	return h
}
