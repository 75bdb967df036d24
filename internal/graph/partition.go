package graph

import (
	"sort"

	"wisegraph/internal/tensor"
)

// LabelPropagationBlocks partitions vertices into k balanced blocks while
// reducing the edge cut, via size-constrained label propagation: vertices
// start in contiguous blocks and iteratively move to the block where most
// of their neighbors live, subject to a balance cap. This is the
// locality-optimized partition the multi-GPU baselines (ROC) and
// WiseGraph's distributed runtime use instead of raw contiguous blocks.
func LabelPropagationBlocks(g *Graph, k, iters int, seed uint64) []int32 {
	n := g.NumVertices
	if k < 1 {
		k = 1
	}
	block := make([]int32, n)
	for v := range block {
		block[v] = int32(v * k / n)
	}
	if k == 1 || n == 0 {
		return block
	}
	sizes := make([]int, k)
	for _, b := range block {
		sizes[b]++
	}
	capSize := n/k + n/(4*k) + 1 // ≤ 25% imbalance

	// undirected adjacency
	deg := make([]int32, n)
	for e := range g.Src {
		deg[g.Src[e]]++
		deg[g.Dst[e]]++
	}
	ptr := make([]int32, n+1)
	for v := 0; v < n; v++ {
		ptr[v+1] = ptr[v] + deg[v]
	}
	adj := make([]int32, 2*len(g.Src))
	next := append([]int32(nil), ptr[:n]...)
	for e := range g.Src {
		s, d := g.Src[e], g.Dst[e]
		adj[next[s]] = d
		next[s]++
		adj[next[d]] = s
		next[d]++
	}

	rng := tensor.NewRNG(seed ^ 0x1ab)
	order := make([]int32, n)
	for v := range order {
		order[v] = int32(v)
	}
	counts := make([]int, k)
	for it := 0; it < iters; it++ {
		// random visit order each sweep
		for i := n - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			order[i], order[j] = order[j], order[i]
		}
		moved := 0
		for _, v := range order {
			lo, hi := ptr[v], ptr[v+1]
			if lo == hi {
				continue
			}
			for b := range counts {
				counts[b] = 0
			}
			for _, u := range adj[lo:hi] {
				counts[block[u]]++
			}
			cur := block[v]
			best := cur
			for b, c := range counts {
				if int32(b) == cur {
					continue
				}
				if c > counts[best] && sizes[b] < capSize {
					best = int32(b)
				}
			}
			if best != cur && counts[best] > counts[cur] {
				sizes[cur]--
				sizes[best]++
				block[v] = best
				moved++
			}
		}
		if moved == 0 {
			break
		}
	}
	return block
}

// BlocksToRelabel converts a block assignment into a vertex renumbering
// that makes each block contiguous (block-major, original order within a
// block) — how a partitioned graph is laid out for the distributed
// engine, and a locality reorder in its own right.
func BlocksToRelabel(block []int32) []int32 {
	n := len(block)
	perm := make([]int32, n)
	for v := range perm {
		perm[v] = int32(v)
	}
	sort.SliceStable(perm, func(i, j int) bool { return block[perm[i]] < block[perm[j]] })
	newID := make([]int32, n)
	for pos, v := range perm {
		newID[v] = int32(pos)
	}
	return newID
}
