// Package core implements WiseGraph's central abstraction, the gTask
// (paper §3–§4): a subset of edges produced by applying *restrictions* on
// edge attributes from the graph partition table, later paired with an
// operation partition plan. The package provides
//
//   - the graph partition table: the edge attributes (ids, edge type,
//     degrees) and their values per edge,
//   - restrictions (uniq(attr)=k, uniq(attr)=min, unrestricted),
//   - the greedy O(E log E) partitioner that sorts edges by the restricted
//     attributes and scans them into gTasks,
//   - enumeration of candidate graph partition plans for a model's
//     indexing attributes, covering vertex-centric, edge-centric, 2-D and
//     the new type/degree/min-restricted plans of Figure 7.
package core

import (
	"fmt"

	"wisegraph/internal/graph"
)

// Attr identifies a row of the graph partition table.
type Attr int

const (
	// AttrEdgeID is the edge's own id (unique per edge).
	AttrEdgeID Attr = iota
	// AttrSrcID is the source vertex id.
	AttrSrcID
	// AttrDstID is the destination vertex id.
	AttrDstID
	// AttrEdgeType is the relation type (RGCN's W index).
	AttrEdgeType
	// AttrSrcDegree is the out-degree of the source vertex (inherent).
	AttrSrcDegree
	// AttrDstDegree is the in-degree of the destination vertex (inherent).
	AttrDstDegree
	// NumAttrs is the number of table rows.
	NumAttrs
)

// String names the attribute as in the paper's figures.
func (a Attr) String() string {
	switch a {
	case AttrEdgeID:
		return "edge-id"
	case AttrSrcID:
		return "src-id"
	case AttrDstID:
		return "dst-id"
	case AttrEdgeType:
		return "edge-type"
	case AttrSrcDegree:
		return "src-degree"
	case AttrDstDegree:
		return "dst-degree"
	default:
		return fmt.Sprintf("attr(%d)", int(a))
	}
}

// AttrReader resolves attribute values for edges of a graph. Degree
// arrays are taken from the graph on the first read of a degree
// attribute, so a reader that never reads one never builds them.
type AttrReader struct {
	g      *graph.Graph
	inDeg  []int32
	outDeg []int32
}

// NewAttrReader builds a reader over g.
func NewAttrReader(g *graph.Graph) *AttrReader { return &AttrReader{g: g} }

// inDegrees returns g's in-degree array, fetched on first use.
func (r *AttrReader) inDegrees() []int32 {
	if r.inDeg == nil {
		r.inDeg = r.g.InDegrees()
	}
	return r.inDeg
}

// outDegrees returns g's out-degree array, fetched on first use.
func (r *AttrReader) outDegrees() []int32 {
	if r.outDeg == nil {
		r.outDeg = r.g.OutDegrees()
	}
	return r.outDeg
}

// Value returns attribute a of edge e.
func (r *AttrReader) Value(a Attr, e int) int32 {
	switch a {
	case AttrEdgeID:
		return int32(e)
	case AttrSrcID:
		return r.g.Src[e]
	case AttrDstID:
		return r.g.Dst[e]
	case AttrEdgeType:
		return r.g.EdgeType(e)
	case AttrSrcDegree:
		return r.outDegrees()[r.g.Src[e]]
	case AttrDstDegree:
		return r.inDegrees()[r.g.Dst[e]]
	default:
		panic(fmt.Sprintf("core: unknown attribute %d", int(a)))
	}
}

// ParseAttr resolves an attribute name (as produced by Attr.String).
func ParseAttr(name string) (Attr, error) {
	for a := Attr(0); a < NumAttrs; a++ {
		if a.String() == name {
			return a, nil
		}
	}
	return 0, fmt.Errorf("core: unknown attribute %q", name)
}
