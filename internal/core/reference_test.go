package core

import (
	"sort"

	"wisegraph/internal/graph"
)

// PartitionGraphReference is the retained sequential implementation of
// PartitionGraph: comparator-based stable sort over the key columns and
// hash-map unique trackers. It is the semantic specification the
// optimized partitioner (radix sort + epoch-stamped dense trackers, see
// partitioner.go) must reproduce byte-for-byte; the
// parity property suite and the before/after benchmarks run it, nothing
// on the hot path does.
func PartitionGraphReference(g *graph.Graph, plan GraphPlan, statAttrs []Attr) *Partition {
	e := g.NumEdges()
	reader := NewAttrReader(g)

	key := keyAttrs(plan)
	order := make([]int32, e)
	for i := range order {
		order[i] = int32(i)
	}
	if len(key) > 0 {
		// Precompute key columns once; comparator over cached columns.
		cols := make([][]int32, len(key))
		for i, a := range key {
			col := make([]int32, e)
			for ei := 0; ei < e; ei++ {
				col[ei] = reader.Value(a, ei)
			}
			cols[i] = col
		}
		sort.SliceStable(order, func(x, y int) bool {
			a, b := order[x], order[y]
			for _, col := range cols {
				if col[a] != col[b] {
					return col[a] < col[b]
				}
			}
			return a < b
		})
	}

	// Which attributes get per-task unique stats.
	want := make([]bool, NumAttrs)
	for _, a := range statAttrs {
		want[a] = true
	}
	for _, r := range plan.Restrictions {
		want[r.Attr] = true
	}

	p := &Partition{Plan: plan, Graph: g, Order: order}
	type tracker struct {
		attr  Attr
		limit int // 0 ⇒ stats only, no closing
		set   map[int32]struct{}
	}
	var tracks []*tracker
	for a := Attr(0); a < NumAttrs; a++ {
		if !want[a] {
			continue
		}
		tr := &tracker{attr: a, set: make(map[int32]struct{})}
		for _, r := range plan.Restrictions {
			if r.Attr == a && r.Kind == Exact {
				tr.limit = r.Limit
			}
		}
		tracks = append(tracks, tr)
	}

	offsets := []int32{0}
	closeTask := func(end int32) {
		offsets = append(offsets, end)
		for _, tr := range tracks {
			if p.Uniq[tr.attr] == nil {
				p.Uniq[tr.attr] = []int32{}
			}
			p.Uniq[tr.attr] = append(p.Uniq[tr.attr], int32(len(tr.set)))
			clear(tr.set)
		}
	}

	for pos := 0; pos < e; pos++ {
		edge := int(order[pos])
		// Would adding this edge violate any Exact restriction?
		violates := false
		for _, tr := range tracks {
			if tr.limit == 0 {
				continue
			}
			v := reader.Value(tr.attr, edge)
			if _, ok := tr.set[v]; !ok && len(tr.set) >= tr.limit {
				violates = true
				break
			}
		}
		if violates && pos > int(offsets[len(offsets)-1]) {
			closeTask(int32(pos))
		}
		for _, tr := range tracks {
			tr.set[reader.Value(tr.attr, edge)] = struct{}{}
		}
	}
	if e > 0 {
		closeTask(int32(e))
	}
	p.TaskOffsets = offsets
	if e == 0 {
		p.TaskOffsets = []int32{0}
	}
	// Ensure stat slices exist even for empty graphs.
	for _, tr := range tracks {
		if p.Uniq[tr.attr] == nil {
			p.Uniq[tr.attr] = []int32{}
		}
	}
	return p
}
