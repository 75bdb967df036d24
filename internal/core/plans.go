package core

import "fmt"

// batchSizes are the K values tried for Exact restrictions with K > 1
// (paper Figure 18 sweeps these).
var batchSizes = [...]int{32, 128}

// EnumeratePlans generates candidate graph partition plans for a model
// whose indexing operations consume indexAttrs. The space covers the
// existing partitions (vertex-centric, edge-centric, 2-D) as special cases
// plus the new plans of paper Figure 7: type-restricted, degree-restricted
// and min-restricted padding plans. In the terms of paper Figure 6,
// indexAttrs is the model's indexing class, and the degree restrictions
// draw on the inherent class.
func EnumeratePlans(indexAttrs []Attr) []GraphPlan {
	uses := func(a Attr) bool {
		for _, x := range indexAttrs {
			if x == a {
				return true
			}
		}
		return false
	}
	var plans []GraphPlan
	add := func(name string, rs ...Restriction) {
		plans = append(plans, GraphPlan{Name: name, Restrictions: rs})
	}

	// (b) vertex-centric: uniq(dst-id)=1.
	if uses(AttrDstID) {
		add("vertex-centric", Restriction{Attr: AttrDstID, Kind: Exact, Limit: 1})
	}
	// (e) edge-centric: uniq(edge-id)=1.
	add("edge-centric", Restriction{Attr: AttrEdgeID, Kind: Exact, Limit: 1})

	for _, k := range batchSizes {
		// edge-batched: uniq(edge-id)=K, balanced fixed-size tasks.
		add(fmt.Sprintf("edge-batch-%d", k), Restriction{Attr: AttrEdgeID, Kind: Exact, Limit: k})
		if uses(AttrDstID) {
			// (c) dst-batched: uniq(dst-id)=K.
			add(fmt.Sprintf("dst-batch-%d", k), Restriction{Attr: AttrDstID, Kind: Exact, Limit: k})
			// vertex-centric with bounded edges: uniq(dst-id)=1 & uniq(edge-id)=K.
			add(fmt.Sprintf("dst1-edge-%d", k),
				Restriction{Attr: AttrDstID, Kind: Exact, Limit: 1},
				Restriction{Attr: AttrEdgeID, Kind: Exact, Limit: k})
		}
		if uses(AttrSrcID) && uses(AttrDstID) {
			// (f) 2-D partition: uniq(dst-id)=K & uniq(src-id)=K.
			add(fmt.Sprintf("2d-%d", k),
				Restriction{Attr: AttrDstID, Kind: Exact, Limit: k},
				Restriction{Attr: AttrSrcID, Kind: Exact, Limit: k})
		}
		if uses(AttrEdgeType) && uses(AttrSrcID) {
			// src-batched single-type (the RGCN winner in Figure 18a):
			// uniq(src-id)=K & uniq(edge-type)=1.
			add(fmt.Sprintf("src-%d-type-1", k),
				Restriction{Attr: AttrSrcID, Kind: Exact, Limit: k},
				Restriction{Attr: AttrEdgeType, Kind: Exact, Limit: 1})
		}
		if uses(AttrDstID) {
			// (h) degree-padded: uniq(dst-id)=K & uniq(dst-degree)=min
			// (the SAGE-LSTM winner in Figure 18b).
			add(fmt.Sprintf("dst-%d-degmin", k),
				Restriction{Attr: AttrDstID, Kind: Exact, Limit: k},
				Restriction{Attr: AttrDstDegree, Kind: Min})
		}
	}
	if uses(AttrEdgeType) {
		if uses(AttrDstID) {
			// (d) vertex+type: uniq(dst-id)=1 & uniq(edge-type)=1.
			add("dst1-type1",
				Restriction{Attr: AttrDstID, Kind: Exact, Limit: 1},
				Restriction{Attr: AttrEdgeType, Kind: Exact, Limit: 1})
		}
		// type-only: uniq(edge-type)=1 (tensor-centric per relation).
		add("type1", Restriction{Attr: AttrEdgeType, Kind: Exact, Limit: 1})
	}
	if uses(AttrDstID) {
		// (g) same-degree grouping: uniq(dst-degree)=1.
		add("deg1", Restriction{Attr: AttrDstDegree, Kind: Exact, Limit: 1})
	}
	return plans
}

// Restricted reports whether plan has an Exact restriction on a, returning
// its limit.
func (p GraphPlan) Restricted(a Attr) (limit int, ok bool) {
	for _, r := range p.Restrictions {
		if r.Attr == a && r.Kind == Exact {
			return r.Limit, true
		}
	}
	return 0, false
}

// DstBatch reports whether the plan's one restriction is uniq(dst-id)=K
// with K ≥ 1 (vertex-centric, dst-batch-K), returning K: its tasks are
// then runs of K destinations in destination order, which a block built
// destination by destination can state without a partitioning pass
// (Partitioner.PartitionRows).
func (p GraphPlan) DstBatch() (k int, ok bool) {
	if len(p.Restrictions) != 1 {
		return 0, false
	}
	r := p.Restrictions[0]
	if r.Attr != AttrDstID || r.Kind != Exact || r.Limit < 1 {
		return 0, false
	}
	return r.Limit, true
}
