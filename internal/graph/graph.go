// Package graph implements the sparse-graph substrate: COO/CSR storage,
// edge attributes (the inputs to WiseGraph's graph partition table),
// locality reordering, and neighbor sampling for sampled-graph training.
package graph

import (
	"fmt"
	"sync"
)

// Graph is a directed multigraph in COO form. Edges point src → dst;
// GNN layers aggregate over each destination's in-edges. Type is the
// per-edge relation id used by heterogeneous models (RGCN); it is nil
// for untyped graphs.
type Graph struct {
	NumVertices int
	NumTypes    int // number of distinct edge types; 1 when Type == nil

	Src  []int32
	Dst  []int32
	Type []int32 // nil ⇒ all edges have type 0

	// degMu guards the lazy degree caches: concurrent joint-search workers
	// share one graph and may all trigger the first InDegrees call.
	degMu  sync.Mutex
	inDeg  []int32 // lazily built, per vertex
	outDeg []int32
	dstDeg []int32 // lazily built, per edge
	srcDeg []int32
}

// NumEdges returns the edge count.
func (g *Graph) NumEdges() int { return len(g.Src) }

// EdgeType returns the type of edge e (0 for untyped graphs).
func (g *Graph) EdgeType(e int) int32 {
	if g.Type == nil {
		return 0
	}
	return g.Type[e]
}

// Validate checks structural invariants and returns a descriptive error
// on the first violation.
func (g *Graph) Validate() error {
	if len(g.Src) != len(g.Dst) {
		return fmt.Errorf("graph: %d srcs vs %d dsts", len(g.Src), len(g.Dst))
	}
	if g.Type != nil && len(g.Type) != len(g.Src) {
		return fmt.Errorf("graph: %d types vs %d edges", len(g.Type), len(g.Src))
	}
	nt := int32(g.NumTypes)
	for e := range g.Src {
		if g.Src[e] < 0 || int(g.Src[e]) >= g.NumVertices {
			return fmt.Errorf("graph: edge %d src %d out of range [0,%d)", e, g.Src[e], g.NumVertices)
		}
		if g.Dst[e] < 0 || int(g.Dst[e]) >= g.NumVertices {
			return fmt.Errorf("graph: edge %d dst %d out of range [0,%d)", e, g.Dst[e], g.NumVertices)
		}
		if g.Type != nil && (g.Type[e] < 0 || g.Type[e] >= nt) {
			return fmt.Errorf("graph: edge %d type %d out of range [0,%d)", e, g.Type[e], nt)
		}
	}
	return nil
}

// InDegrees returns the per-vertex in-degree array (cached). Safe for
// concurrent callers: the first caller computes, later callers reuse.
func (g *Graph) InDegrees() []int32 {
	g.degMu.Lock()
	defer g.degMu.Unlock()
	if g.inDeg == nil {
		g.inDeg = countEndpoints(g.Dst, g.NumVertices)
	}
	return g.inDeg
}

// OutDegrees returns the per-vertex out-degree array (cached). Safe for
// concurrent callers.
func (g *Graph) OutDegrees() []int32 {
	g.degMu.Lock()
	defer g.degMu.Unlock()
	if g.outDeg == nil {
		g.outDeg = countEndpoints(g.Src, g.NumVertices)
	}
	return g.outDeg
}

// DstDegrees returns, per edge, the in-degree of the edge's destination
// (cached): the dst-degree column of the graph partition table. Safe for
// concurrent callers.
func (g *Graph) DstDegrees() []int32 {
	in := g.InDegrees()
	g.degMu.Lock()
	defer g.degMu.Unlock()
	if g.dstDeg == nil {
		g.dstDeg = gather(in, g.Dst)
	}
	return g.dstDeg
}

// SrcDegrees returns, per edge, the out-degree of the edge's source
// (cached): the src-degree column. Safe for concurrent callers.
func (g *Graph) SrcDegrees() []int32 {
	out := g.OutDegrees()
	g.degMu.Lock()
	defer g.degMu.Unlock()
	if g.srcDeg == nil {
		g.srcDeg = gather(out, g.Src)
	}
	return g.srcDeg
}

// gather returns vals[ids[i]] for every i.
func gather(vals, ids []int32) []int32 {
	out := make([]int32, len(ids))
	for i, x := range ids {
		out[i] = vals[x]
	}
	return out
}

// countEndpoints histograms ids (all in [0, v)) into a fresh array.
func countEndpoints(ids []int32, v int) []int32 {
	d := make([]int32, v)
	for _, x := range ids {
		d[x]++
	}
	return d
}

// invalidateCaches drops degree caches after a structural mutation.
// Mutating methods are not safe for use concurrent with readers (that
// contract is unchanged); the lock only orders the cache swap itself.
func (g *Graph) invalidateCaches() {
	g.degMu.Lock()
	g.inDeg, g.outDeg, g.dstDeg, g.srcDeg = nil, nil, nil, nil
	g.degMu.Unlock()
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	out := &Graph{
		NumVertices: g.NumVertices,
		NumTypes:    g.NumTypes,
		Src:         append([]int32(nil), g.Src...),
		Dst:         append([]int32(nil), g.Dst...),
	}
	if g.Type != nil {
		out.Type = append([]int32(nil), g.Type...)
	}
	return out
}

// CSR is a compressed-sparse-row view grouped by destination vertex:
// the in-edges of vertex v occupy positions [RowPtr[v], RowPtr[v+1]) of
// Col (source ids), EType and EdgeID.
type CSR struct {
	RowPtr []int32
	Col    []int32
	EType  []int32 // nil for untyped graphs
	EdgeID []int32 // original COO edge index per CSR slot
}

// BuildCSRByDst groups edges by destination via counting sort: O(V+E),
// stable in original edge order within each destination.
func (g *Graph) BuildCSRByDst() *CSR {
	e := len(g.Src)
	col := make([]int32, e)
	eid := make([]int32, e)
	var et []int32
	if g.Type != nil {
		et = make([]int32, e)
	}
	rowPtr := make([]int32, g.NumVertices+1)
	for v, d := range g.InDegrees() {
		rowPtr[v+1] = rowPtr[v] + d
	}
	next := append([]int32(nil), rowPtr[:g.NumVertices]...)
	for i := range g.Src {
		d := g.Dst[i]
		slot := next[d]
		next[d]++
		col[slot] = g.Src[i]
		eid[slot] = int32(i)
		if et != nil {
			et[slot] = g.Type[i]
		}
	}
	return &CSR{RowPtr: rowPtr, Col: col, EType: et, EdgeID: eid}
}

// RelabelVertices renames vertex v to newID[v] across all edges. newID
// must be a permutation of [0, NumVertices).
func (g *Graph) RelabelVertices(newID []int32) {
	if len(newID) != g.NumVertices {
		panic(fmt.Sprintf("graph: relabel map has %d entries for %d vertices", len(newID), g.NumVertices))
	}
	for e := range g.Src {
		g.Src[e] = newID[g.Src[e]]
		g.Dst[e] = newID[g.Dst[e]]
	}
	g.invalidateCaches()
}

// MaxInDegree returns the largest in-degree in the graph.
func (g *Graph) MaxInDegree() int32 {
	var m int32
	for _, d := range g.InDegrees() {
		if d > m {
			m = d
		}
	}
	return m
}

// AvgDegree returns |E| / |V|.
func (g *Graph) AvgDegree() float64 {
	if g.NumVertices == 0 {
		return 0
	}
	return float64(g.NumEdges()) / float64(g.NumVertices)
}

// String summarizes the graph.
func (g *Graph) String() string {
	return fmt.Sprintf("Graph{V=%d E=%d types=%d}", g.NumVertices, g.NumEdges(), g.NumTypes)
}
