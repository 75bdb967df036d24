package nn

import (
	"fmt"
	"sync"

	"wisegraph/internal/core"
	"wisegraph/internal/graph"
	"wisegraph/internal/tensor"
)

// GraphCtx precomputes the per-graph arrays every layer needs: edges
// grouped by destination row (which GAT's softmax and SAGE-LSTM's neighbor
// sequences require), per-edge mean weights, and edges grouped by type for
// RGCN. Each destination sees its in-edges in one fixed order: edge-id
// order (NewGraphCtx) or a given order such as a partition's task order
// (NewGraphCtxOrder), and every layer accumulates in it.
type GraphCtx struct {
	G   *graph.Graph
	CSR *graph.CSR

	// Rows lists the local ids of the destination rows, strictly
	// ascending; nil means every vertex. Row i of a layer's output is
	// vertex Rows[i], and CSR.RowPtr runs over Rows.
	Rows []int32

	// SrcByDst / DstByDst are the edge endpoints in CSR (dst-grouped)
	// order; edge slot s of CSR corresponds to SrcByDst[s] → DstByDst[s],
	// where DstByDst holds the destination's row (its index in Rows).
	SrcByDst []int32
	DstByDst []int32
	// InvDeg[s] = 1/in-degree(dst) per CSR slot (mean aggregation).
	InvDeg []float32

	// TypeOrder lists CSR slots grouped by edge type; TypeOffsets[t] ..
	// TypeOffsets[t+1] delimit type t, and TypePos[s] is slot s's position
	// in TypeOrder (all nil for untyped graphs).
	TypeOrder   []int32
	TypeOffsets []int32
	TypePos     []int32

	// mu guards the lazily built members below.
	mu sync.Mutex
	// srcPtr, srcDst and srcW group the CSR slots by source vertex (BySrc).
	srcPtr, srcDst []int32
	srcW           []float32
	// ordered is the context in the edge order of the partition orderedFor
	// (OrderedBy's one-entry memo): gc itself when gc is in that order.
	ordered    *GraphCtx
	orderedFor *core.Partition

	// slab is the pooled storage of the int32 arrays above but TypeOffsets.
	slab []int32
}

// NewGraphCtx builds the context for g over every vertex, each
// destination's in-edges in edge-id order.
func NewGraphCtx(g *graph.Graph) *GraphCtx {
	gc, err := NewGraphCtxOrder(g, nil, nil)
	if err != nil {
		panic(err) // unreachable: every edge ends in the all-vertex row set
	}
	return gc
}

// NewGraphCtxOrder builds the context for g whose destination rows are
// rows (nil: every vertex) and in which each destination sees its in-edges
// in the sequence they take in order, a permutation of g's edge ids (nil:
// edge-id order). rows must be strictly ascending ids of g, and every edge
// must end in it: one that does not is an error, not a dropped
// contribution. The arrays come from the tensor pools; Release returns
// them once nothing reads the context.
func NewGraphCtxOrder(g *graph.Graph, order, rows []int32) (*GraphCtx, error) {
	v, e := g.NumVertices, g.NumEdges()
	if order != nil && len(order) != e {
		return nil, fmt.Errorf("nn: edge order has %d entries for %d edges", len(order), e)
	}
	inDeg := g.InDegrees()
	n := v
	if rows != nil {
		if err := checkRows(rows, v); err != nil {
			return nil, err
		}
		edges := 0
		for _, d := range rows {
			edges += int(inDeg[d])
		}
		if edges != e {
			return nil, edgesOutside(e-edges, e, len(rows))
		}
		n = len(rows)
	}
	gc := newGraphCtx(g, rows, n)
	csr := gc.CSR
	// Scratch: the next free slot per row and, with a row set, each
	// vertex's row.
	scratch := tensor.GetI32(n + v)
	defer tensor.PutI32(scratch)
	next, at := scratch[:n], scratch[n:]
	for r := 0; r < n; r++ {
		d := r
		if rows != nil {
			d = int(rows[r])
			at[d] = int32(r)
		}
		csr.RowPtr[r+1] = csr.RowPtr[r] + inDeg[d]
	}
	copy(next, csr.RowPtr)
	for i := 0; i < e; i++ {
		ei := int32(i)
		if order != nil {
			ei = order[i]
		}
		r := g.Dst[ei]
		if rows != nil {
			r = at[r]
		}
		s := next[r]
		next[r]++
		csr.Col[s], csr.EdgeID[s], gc.DstByDst[s] = g.Src[ei], ei, r
		gc.InvDeg[s] = 1 / float32(csr.RowPtr[r+1]-csr.RowPtr[r])
	}
	gc.groupTypes()
	return gc, nil
}

// NewGraphCtxRows is NewGraphCtxOrder(g, nil, rows) for a graph whose
// edges already sit grouped by destination row, as a block built
// destination by destination records them: row r's edges are rowPtr[r] ..
// rowPtr[r+1], every one ending in rows[r]. It builds that call's arrays,
// taking the row pointers as given instead of counting in-degrees and
// placing each edge. Row pointers that do not run over g's edges in order,
// or an edge outside its row's destination, are an error.
func NewGraphCtxRows(g *graph.Graph, rows, rowPtr []int32) (*GraphCtx, error) {
	e, n := g.NumEdges(), len(rows)
	if err := checkRows(rows, g.NumVertices); err != nil {
		return nil, err
	}
	if len(rowPtr) != n+1 || rowPtr[0] != 0 {
		return nil, fmt.Errorf("nn: %d row pointers for %d destination rows", len(rowPtr), n)
	}
	if rowPtr[n] < int32(e) {
		return nil, edgesOutside(e-int(rowPtr[n]), e, n)
	}
	gc := newGraphCtx(g, rows, n)
	csr := gc.CSR
	copy(csr.RowPtr, rowPtr)
	copy(csr.Col, g.Src)
	for r, d := range rows {
		lo, hi := rowPtr[r], rowPtr[r+1]
		if hi < lo || int(hi) > e {
			gc.Release()
			return nil, fmt.Errorf("nn: row pointers leave [0,%d] or descend at row %d (%d after %d)", e, r, hi, lo)
		}
		w := 1 / float32(hi-lo)
		for s := lo; s < hi; s++ {
			if g.Dst[s] != d {
				gc.Release()
				return nil, fmt.Errorf("nn: edge %d of row %d ends in %d, not in the row's destination %d", s, r, g.Dst[s], d)
			}
			csr.EdgeID[s], gc.DstByDst[s], gc.InvDeg[s] = s, int32(r), w
		}
	}
	gc.groupTypes()
	return gc, nil
}

// checkRows validates a destination row set: strictly ascending ids in
// [0, v).
func checkRows(rows []int32, v int) error {
	prev := int32(-1)
	for _, d := range rows {
		if d <= prev || int(d) >= v {
			return fmt.Errorf("nn: destination rows must be strictly ascending ids in [0,%d), got %d after %d", v, d, prev)
		}
		prev = d
	}
	return nil
}

// edgesOutside is the error for a row set that misses some edges'
// destinations.
func edgesOutside(missed, e, rows int) error {
	return fmt.Errorf("nn: %d of %d edges end outside the %d destination rows", missed, e, rows)
}

// newGraphCtx lays out a context over g with n destination rows: every
// int32 array but TypeOffsets is a piece of one pooled slab, the per-type
// arrays only for a typed graph. The constructors fill the CSR, DstByDst
// and InvDeg, then groupTypes the rest.
func newGraphCtx(g *graph.Graph, rows []int32, n int) *GraphCtx {
	e := g.NumEdges()
	size := n + 1 + 3*e
	if g.Type != nil {
		size += 3 * e
	}
	gc := &GraphCtx{G: g, Rows: rows, InvDeg: tensor.GetF32(e), slab: tensor.GetI32(size)}
	free := gc.slab
	take := func(k int) []int32 {
		s := free[:k:k]
		free = free[k:]
		return s
	}
	csr := &graph.CSR{RowPtr: take(n + 1), Col: take(e), EdgeID: take(e)}
	gc.CSR, gc.SrcByDst, gc.DstByDst = csr, csr.Col, take(e)
	if g.Type != nil {
		csr.EType, gc.TypeOrder, gc.TypePos = take(e), take(e), take(e)
	}
	return gc
}

// groupTypes fills a typed context's per-type arrays from its CSR slots:
// each slot's type, the slots grouped by type in ascending slot order, and
// each slot's position in that grouping.
func (gc *GraphCtx) groupTypes() {
	g, csr := gc.G, gc.CSR
	if g.Type == nil {
		return
	}
	nt := g.NumTypes
	counts := tensor.GetI32(nt)
	for s, ei := range csr.EdgeID {
		t := g.Type[ei]
		csr.EType[s] = t
		counts[t]++
	}
	gc.TypeOffsets = tensor.CountsToOffsets(counts)
	copy(counts, gc.TypeOffsets[:nt])
	for s, t := range csr.EType {
		gc.TypeOrder[counts[t]], gc.TypePos[s] = int32(s), counts[t]
		counts[t]++
	}
	tensor.PutI32(counts)
}

// Release returns the context's pooled arrays, its per-source grouping
// and the context OrderedBy built for it. Neither the context nor anything
// read from it may be used afterwards.
func (gc *GraphCtx) Release() {
	gc.releaseOrdered()
	tensor.PutI32(gc.srcDst)
	tensor.PutF32(gc.srcW)
	tensor.PutI32(gc.slab)
	tensor.PutF32(gc.InvDeg)
	*gc = GraphCtx{}
}

// SameOrder reports whether every destination of gc sees its in-edges in
// the sequence they take in order, a permutation of the edge ids: then a
// context built over order holds the same arrays as gc.
func (gc *GraphCtx) SameOrder(order []int32) bool {
	if gc.CSR == nil || gc.Rows != nil || len(order) != gc.NumEdges() {
		return false
	}
	next := tensor.GetI32(gc.NumVertices())
	defer tensor.PutI32(next)
	copy(next, gc.CSR.RowPtr)
	for _, e := range order {
		d := gc.G.Dst[e]
		if gc.CSR.EdgeID[next[d]] != e {
			return false
		}
		next[d]++
	}
	return true
}

// BySrc returns (building on first use) gc's CSR slots grouped by source
// vertex: vertex v's slots are ptr[v]..ptr[v+1] in ascending slot order,
// with each slot's destination row in dst and its weight InvDeg in w. The
// transposed aggregation walks it with EdgeSpMM, so row v of an input
// gradient sums its out-edges' terms in slot order.
func (gc *GraphCtx) BySrc() (ptr, dst []int32, w []float32) {
	gc.mu.Lock()
	defer gc.mu.Unlock()
	if gc.srcPtr == nil {
		// Every edge of G is a slot of gc, so G's out-degrees count them.
		gc.srcPtr = tensor.CountsToOffsets(gc.G.OutDegrees())
		next := tensor.GetI32(gc.NumVertices())
		copy(next, gc.srcPtr)
		gc.srcDst, gc.srcW = tensor.GetI32(gc.NumEdges()), tensor.GetF32(gc.NumEdges())
		for s, src := range gc.SrcByDst {
			k := next[src]
			next[src]++
			gc.srcDst[k], gc.srcW[k] = gc.DstByDst[s], gc.InvDeg[s]
		}
		tensor.PutI32(next)
	}
	return gc.srcPtr, gc.srcDst, gc.srcW
}

// OrderedBy returns the context over gc's graph, every vertex a row, in
// which each destination sees its in-edges in part's task order: gc itself
// when they already are, else a context built on first use and kept until
// a different partition asks or gc is released — neither may overlap a use
// of it. The caller does not release it; part.Order must not change.
func (gc *GraphCtx) OrderedBy(part *core.Partition) (*GraphCtx, error) {
	gc.mu.Lock()
	defer gc.mu.Unlock()
	if gc.ordered != nil && gc.orderedFor == part {
		return gc.ordered, nil
	}
	gc.releaseOrdered()
	lc := gc
	if !gc.SameOrder(part.Order) {
		var err error
		if lc, err = NewGraphCtxOrder(gc.G, part.Order, nil); err != nil {
			return nil, err
		}
	}
	gc.ordered, gc.orderedFor = lc, part
	return lc, nil
}

// releaseOrdered drops OrderedBy's memo, releasing a context it built.
func (gc *GraphCtx) releaseOrdered() {
	if gc.ordered != nil && gc.ordered != gc {
		gc.ordered.Release()
	}
	gc.ordered, gc.orderedFor = nil, nil
}

// NumVertices returns the vertex count: the rows of a layer's input.
func (gc *GraphCtx) NumVertices() int { return gc.G.NumVertices }

// NumRows returns the destination row count: the rows of a layer's output.
func (gc *GraphCtx) NumRows() int {
	if gc.Rows == nil {
		return gc.NumVertices()
	}
	return len(gc.Rows)
}

// NumEdges returns the edge count.
func (gc *GraphCtx) NumEdges() int { return len(gc.SrcByDst) }

// mustAllRows panics unless gc's destination rows are every vertex: the
// training entry points cache activations for a backward that has no row
// set.
func (gc *GraphCtx) mustAllRows() {
	if gc.Rows != nil {
		panic("nn: Forward needs every vertex as a destination row; use Infer")
	}
}

// Layer is one trainable graph-convolution layer with cached activations
// for the backward pass.
type Layer interface {
	// Forward computes the layer output for input x [V, in] and caches
	// what Backward reads; gc's rows must be every vertex.
	Forward(gc *GraphCtx, x *tensor.Tensor) *tensor.Tensor
	// Infer runs Forward's arithmetic over gc's destination rows and
	// returns a pooled [gc.NumRows(), out] tensor the caller owns. It
	// writes no layer state, so concurrent calls may share a layer.
	Infer(gc *GraphCtx, x *tensor.Tensor) *tensor.Tensor
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
