package graph

import (
	"wisegraph/internal/tensor"
)

// Subgraph is the result of neighbor sampling: a small graph over locally
// renumbered vertices plus the mapping back to the parent graph.
type Subgraph struct {
	Graph *Graph
	// Vertices maps local vertex id → parent vertex id. Seeds come first,
	// so Vertices[:NumSeeds] are the training targets of this mini-batch.
	Vertices []int32
	NumSeeds int
	// EdgeParent maps local edge index → parent edge index.
	EdgeParent []int32
}

// NeighborSample draws a GraphSAGE-style fan-out sample: starting from
// seeds, layer l samples up to fanouts[l] in-neighbors of every frontier
// vertex (without replacement when the neighborhood is small enough).
// The returned subgraph contains the union of sampled edges across layers,
// matching the paper's 20-15-10 sampling used to build PA-S and FS-S.
func NeighborSample(g *Graph, csr *CSR, seeds []int32, fanouts []int, rng *tensor.RNG) *Subgraph {
	local := make(map[int32]int32, len(seeds)*4)
	vertices := make([]int32, 0, len(seeds)*4)
	intern := func(v int32) int32 {
		if id, ok := local[v]; ok {
			return id
		}
		id := int32(len(vertices))
		local[v] = id
		vertices = append(vertices, v)
		return id
	}
	for _, s := range seeds {
		intern(s)
	}

	sub := &Graph{NumTypes: g.NumTypes}
	var edgeParent []int32
	frontier := append([]int32(nil), seeds...)
	var pick []int32
	for _, fan := range fanouts {
		nextFrontier := make([]int32, 0, len(frontier)*fan)
		seen := make(map[int32]struct{}, len(frontier)*fan)
		for _, v := range frontier {
			lo, hi := csr.RowPtr[v], csr.RowPtr[v+1]
			deg := int(hi - lo)
			take := fan
			if take > deg {
				take = deg
			}
			if take == 0 {
				continue
			}
			pick = samplePositions(pick[:0], deg, take, rng)
			for _, p := range pick {
				slot := lo + p
				src := csr.Col[slot]
				ls, ld := intern(src), intern(v)
				sub.Src = append(sub.Src, ls)
				sub.Dst = append(sub.Dst, ld)
				if g.Type != nil {
					sub.Type = append(sub.Type, csr.EType[slot])
				}
				edgeParent = append(edgeParent, csr.EdgeID[slot])
				if _, ok := seen[src]; !ok {
					seen[src] = struct{}{}
					nextFrontier = append(nextFrontier, src)
				}
			}
		}
		frontier = nextFrontier
	}
	sub.NumVertices = len(vertices)
	if sub.Type == nil {
		sub.NumTypes = 1
	}
	return &Subgraph{Graph: sub, Vertices: vertices, NumSeeds: len(seeds), EdgeParent: edgeParent}
}

// DetSample draws the deterministic neighbor sample of one vertex: up to
// fan in-edge CSR slots of v, chosen by a stateless RNG keyed on
// (seed, v, fan) alone. The same (vertex, fan, seed) triple always yields
// the same slots in the same order, regardless of which other vertices
// share the batch — the property the serving tier's leveled forward needs
// so a vertex's layer output is a pure function of the vertex, making
// per-vertex embedding caching sound. Slots are appended to dst.
func DetSample(dst []int32, csr *CSR, v int32, fan int, seed uint64) []int32 {
	lo, hi := csr.RowPtr[v], csr.RowPtr[v+1]
	deg := int(hi - lo)
	take := fan
	if take > deg {
		take = deg
	}
	if take == 0 {
		return dst
	}
	if cap(dst)-len(dst) < take {
		// One allocation for a nil dst, not one per doubling.
		dst = append(make([]int32, 0, len(dst)+take), dst...)
	}
	if take == deg {
		// Full neighborhood: no draw needed, slots in CSR order.
		for s := lo; s < hi; s++ {
			dst = append(dst, s)
		}
		return dst
	}
	var rng tensor.RNG // on the stack; SetState seeds it as NewRNG would
	rng.SetState(mix3(seed, uint64(v), uint64(fan)))
	n := len(dst)
	dst = samplePositions(dst, deg, take, &rng)
	for i := n; i < len(dst); i++ {
		dst[i] += lo
	}
	return dst
}

// mix3 combines the sampling seed with a vertex id and fan-out into one
// well-spread 64-bit RNG seed (splitmix64-style finalization).
func mix3(seed, v, fan uint64) uint64 {
	h := seed ^ (v+1)*0x9e3779b97f4a7c15 ^ (fan+1)*0xbf58476d1ce4e5b9
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// sampleTable is how many displaced shuffle entries samplePositions keeps
// on the stack; a larger take falls back to the heap.
const sampleTable = 32

// samplePositions appends take distinct positions in [0, n) to dst: the
// head of a partial Fisher–Yates shuffle of 0…n-1, drawing rng.Intn(n-i)
// for i = 0…take-1. The shuffled array is never built. Before step i only
// the entries an earlier swap moved differ from their index, at most i of
// them, so they are kept in a small table searched linearly and the cost
// is O(take²) whatever n is — a hub of degree 5 000 costs what a vertex of
// degree 11 does. With take >= n it appends everything, in order.
func samplePositions(dst []int32, n, take int, rng *tensor.RNG) []int32 {
	if take >= n {
		for i := 0; i < n; i++ {
			dst = append(dst, int32(i))
		}
		return dst
	}
	// at[k] holds val[k] instead of its own index.
	var atBuf, valBuf [sampleTable]int32
	at, val := atBuf[:0], valBuf[:0]
	if take > sampleTable {
		at, val = make([]int32, 0, take), make([]int32, 0, take)
	}
	for i := 0; i < take; i++ {
		j := i + rng.Intn(n-i)
		vi, vj, jk := int32(i), int32(j), -1
		for k, p := range at {
			if p == int32(i) {
				vi = val[k]
			}
			if p == int32(j) {
				vj, jk = val[k], k
			}
		}
		// Swap entries i and j; i is final and never read again.
		dst = append(dst, vj)
		switch {
		case jk >= 0:
			val[jk] = vi
		case j != i:
			at, val = append(at, int32(j)), append(val, vi)
		}
	}
	return dst
}

// GatherFeatures copies parent-graph vertex features into a tensor aligned
// with the subgraph's local vertex ids.
func (s *Subgraph) GatherFeatures(parent *tensor.Tensor) *tensor.Tensor {
	return tensor.GatherRows(nil, parent, s.Vertices)
}

// GatherLabels copies parent labels into a local label slice.
func (s *Subgraph) GatherLabels(parent []int32) []int32 {
	out := make([]int32, len(s.Vertices))
	for i, v := range s.Vertices {
		out[i] = parent[v]
	}
	return out
}
