package nn

import (
	"wisegraph/internal/graph"
	"wisegraph/internal/parallel"
	"wisegraph/internal/tensor"
)

// GraphCtx precomputes the per-graph arrays every layer needs: CSR-ordered
// edges (grouped by destination, which GAT's softmax and SAGE-LSTM's
// neighbor sequences require), per-edge mean weights, and edges grouped by
// type for RGCN.
type GraphCtx struct {
	G   *graph.Graph
	CSR *graph.CSR

	// SrcByDst / DstByDst are the edge endpoints in CSR (dst-grouped)
	// order; edge slot s of CSR corresponds to SrcByDst[s] → DstByDst[s].
	SrcByDst []int32
	DstByDst []int32
	// InvDeg[s] = 1/in-degree(dst) per CSR slot (mean aggregation).
	InvDeg []float32

	// TypeOrder lists CSR slots grouped by edge type; TypeOffsets[t] ..
	// TypeOffsets[t+1] delimit type t (nil for untyped graphs).
	TypeOrder   []int32
	TypeOffsets []int32

	// Cached destination binnings for the two scatter directions (lazily
	// built; see tensor.BinRows). The index arrays never change for a
	// given graph, so every EdgeSpMM over this context reuses them. Like
	// the layer activation caches, these are not safe for concurrent
	// mutation from multiple goroutines.
	binsByDst *tensor.Bins // dst = DstByDst (forward aggregation)
	binsBySrc *tensor.Bins // dst = SrcByDst (backward/transpose)

	// typeEdges caches the per-relation edge arrays RGCN gathers from
	// (lazily built; the underlying CSR never changes).
	typeEdges []TypeEdges
}

// TypeEdges holds one relation's edges as parallel arrays: endpoints plus
// the mean-normalization weight of each edge.
type TypeEdges struct {
	Src, Dst []int32
	W        []float32
}

// NewGraphCtx builds the context for g.
func NewGraphCtx(g *graph.Graph) *GraphCtx {
	csr := g.BuildCSRByDst()
	e := g.NumEdges()
	gc := &GraphCtx{G: g, CSR: csr}
	gc.SrcByDst = csr.Col
	gc.DstByDst = make([]int32, e)
	gc.InvDeg = make([]float32, e)
	for v := 0; v < g.NumVertices; v++ {
		lo, hi := csr.RowPtr[v], csr.RowPtr[v+1]
		deg := float32(hi - lo)
		for s := lo; s < hi; s++ {
			gc.DstByDst[s] = int32(v)
			gc.InvDeg[s] = 1 / deg
		}
	}
	if g.Type != nil {
		counts := make([]int32, g.NumTypes)
		for _, t := range csr.EType {
			counts[t]++
		}
		gc.TypeOffsets = tensor.CountsToOffsets(counts)
		next := append([]int32(nil), gc.TypeOffsets[:g.NumTypes]...)
		gc.TypeOrder = make([]int32, e)
		for s := 0; s < e; s++ {
			t := csr.EType[s]
			gc.TypeOrder[next[t]] = int32(s)
			next[t]++
		}
	}
	return gc
}

// BinsByDst returns (building on first use) the destination binning for
// forward aggregation: edges partitioned by DstByDst shard.
func (gc *GraphCtx) BinsByDst() *tensor.Bins {
	gc.binsByDst = gc.edgeBins(gc.binsByDst, gc.DstByDst)
	return gc.binsByDst
}

// BinsBySrc returns the binning for the transpose direction (backward):
// edges partitioned by SrcByDst shard.
func (gc *GraphCtx) BinsBySrc() *tensor.Bins {
	gc.binsBySrc = gc.edgeBins(gc.binsBySrc, gc.SrcByDst)
	return gc.binsBySrc
}

func (gc *GraphCtx) edgeBins(cur *tensor.Bins, dst []int32) *tensor.Bins {
	shards := parallel.Workers(gc.NumVertices(), 1)
	if cur != nil && cur.NumShards() == min(shards, gc.NumVertices()) {
		return cur
	}
	return tensor.BinRows(cur, dst, gc.NumVertices(), shards)
}

// TypeEdgeArrays returns (building on first use) relation t's edge arrays
// in CSR slot order. The arrays are owned by the context; callers must not
// mutate them.
func (gc *GraphCtx) TypeEdgeArrays(t int) *TypeEdges {
	if gc.typeEdges == nil {
		n := len(gc.TypeOffsets) - 1
		gc.typeEdges = make([]TypeEdges, n)
		for tt := 0; tt < n; tt++ {
			slots := gc.TypeOrder[gc.TypeOffsets[tt]:gc.TypeOffsets[tt+1]]
			te := &gc.typeEdges[tt]
			te.Src = make([]int32, len(slots))
			te.Dst = make([]int32, len(slots))
			te.W = make([]float32, len(slots))
			for i, s := range slots {
				te.Src[i] = gc.SrcByDst[s]
				te.Dst[i] = gc.DstByDst[s]
				te.W[i] = gc.InvDeg[s]
			}
		}
	}
	return &gc.typeEdges[t]
}

// NumVertices returns the vertex count.
func (gc *GraphCtx) NumVertices() int { return gc.G.NumVertices }

// NumEdges returns the edge count.
func (gc *GraphCtx) NumEdges() int { return len(gc.SrcByDst) }

// Layer is one trainable graph-convolution layer with cached activations
// for the backward pass.
type Layer interface {
	// Forward computes the layer output for input x [V, in].
	Forward(gc *GraphCtx, x *tensor.Tensor) *tensor.Tensor
	// Backward consumes d(loss)/d(out) and accumulates parameter
	// gradients. With needDX it returns d(loss)/d(x); without, it skips
	// every step only the input gradient needs and returns nil — the
	// parameter gradients are the same bits either way.
	Backward(gc *GraphCtx, dOut *tensor.Tensor, needDX bool) *tensor.Tensor
	// Params lists the layer's trainable parameters.
	Params() []*Param
	// InDim / OutDim report the feature dimensions.
	InDim() int
	OutDim() int
}
