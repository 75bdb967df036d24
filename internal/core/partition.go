package core

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"wisegraph/internal/graph"
)

// RestrictKind selects the restriction semantics for a table entry
// (paper §4.2).
type RestrictKind int

const (
	// Exact limits the number of unique values to Limit.
	Exact RestrictKind = iota
	// Min prefers gTasks with as few unique values as possible: the
	// attribute participates in the sort key but does not close tasks.
	Min
)

// Restriction bounds one edge attribute within a gTask.
type Restriction struct {
	Attr  Attr
	Kind  RestrictKind
	Limit int // used when Kind == Exact
}

// String renders the restriction in the paper's uniq(attr)=k notation.
func (r Restriction) String() string {
	if r.Kind == Min {
		return fmt.Sprintf("uniq(%s)=min", r.Attr)
	}
	return fmt.Sprintf("uniq(%s)=%d", r.Attr, r.Limit)
}

// GraphPlan is a graph partition plan: a named set of restrictions.
type GraphPlan struct {
	Name         string
	Restrictions []Restriction
}

// String renders the plan.
func (p GraphPlan) String() string {
	parts := make([]string, len(p.Restrictions))
	for i, r := range p.Restrictions {
		parts[i] = r.String()
	}
	return fmt.Sprintf("%s{%s}", p.Name, strings.Join(parts, "&"))
}

// VertexCentric is uniq(dst-id)=1, the partition used by Seastar-style
// systems.
func VertexCentric() GraphPlan {
	return GraphPlan{Name: "vertex-centric", Restrictions: []Restriction{{Attr: AttrDstID, Kind: Exact, Limit: 1}}}
}

// EdgeCentric is uniq(edge-id)=1.
func EdgeCentric() GraphPlan {
	return GraphPlan{Name: "edge-centric", Restrictions: []Restriction{{Attr: AttrEdgeID, Kind: Exact, Limit: 1}}}
}

// WholeGraph is the unrestricted plan: one gTask holding every edge, the
// degenerate partition the tensor-centric approach corresponds to.
func WholeGraph() GraphPlan { return GraphPlan{Name: "whole-graph"} }

// Partition is the result of applying a plan to a graph: a permutation of
// the edges plus contiguous gTask ranges over that permutation, with
// per-task unique-value statistics for every attribute of interest.
type Partition struct {
	Plan  GraphPlan
	Graph *graph.Graph
	// Order maps position → original edge index; tasks are contiguous
	// runs of Order. It is never written once the partition is built, and
	// partitions share it: the partitions of one Table share one order per
	// sort key, and identity orders are views of one Partitioner's.
	Order []int32
	// TaskOffsets has NumTasks()+1 entries delimiting each task's run.
	TaskOffsets []int32
	// Uniq[a] is the per-task count of distinct values of attribute a
	// (nil for attributes that were not requested).
	Uniq [NumAttrs][]int32
}

// NumTasks returns the number of gTasks.
func (p *Partition) NumTasks() int { return len(p.TaskOffsets) - 1 }

// TaskLen returns the number of edges in task t.
func (p *Partition) TaskLen(t int) int {
	return int(p.TaskOffsets[t+1] - p.TaskOffsets[t])
}

// TaskEdges returns the original edge indices of task t (a view into
// Order; do not mutate).
func (p *Partition) TaskEdges(t int) []int32 {
	return p.Order[p.TaskOffsets[t]:p.TaskOffsets[t+1]]
}

// TaskUniq returns the unique-value count of attribute a within task t.
// The attribute must have been included in statAttrs at partition time.
func (p *Partition) TaskUniq(t int, a Attr) int32 {
	u := p.Uniq[a]
	if u == nil {
		panic(fmt.Sprintf("core: stats for %s were not collected", a))
	}
	return u[t]
}

// TaskOfEdge returns, for visualization (paper Figure 15), a per-edge task
// id array indexed by original edge id.
func (p *Partition) TaskOfEdge() []int32 {
	out := make([]int32, len(p.Order))
	for t := 0; t < p.NumTasks(); t++ {
		for _, e := range p.TaskEdges(t) {
			out[e] = int32(t)
		}
	}
	return out
}

// keyAttrs lists a plan's restricted attributes in sort-key order: Min
// attrs first (so similar values cluster and the minimum-uniqueness
// preference holds), then Exact attrs ordered by ascending limit — tighter
// restrictions sort first so that, e.g., uniq(src)=K & uniq(type)=1 groups
// globally by type and then batches sources within each type, instead of
// fragmenting at every type change.
func keyAttrs(plan GraphPlan) []Attr {
	var key []Attr
	for _, r := range plan.Restrictions {
		if r.Kind == Min {
			key = append(key, r.Attr)
		}
	}
	exact := make([]Restriction, 0, len(plan.Restrictions))
	for _, r := range plan.Restrictions {
		if r.Kind == Exact {
			exact = append(exact, r)
		}
	}
	sort.SliceStable(exact, func(i, j int) bool { return exact[i].Limit < exact[j].Limit })
	for _, r := range exact {
		key = append(key, r.Attr)
	}
	return key
}

// sortKey is the key the partitioner sorts a plan's edges by: keyAttrs cut
// at its first edge-id. Edge ids are distinct, so ties under the attributes
// before it are broken by edge id, which a stable sort of the identity
// order does already, and nothing after it is ever compared. Plans whose
// sort keys are equal (vertex-centric, dst-batch-K and dst1-edge-K all sort
// by dst-id alone) share one sorted order (Table).
func sortKey(plan GraphPlan) []Attr {
	key := keyAttrs(plan)
	if i := slices.Index(key, AttrEdgeID); i >= 0 {
		return key[:i]
	}
	return key
}

// partitionerPool recycles Partitioners (and the scratch they retain)
// across PartitionGraph calls, so repeated one-shot partitioning — the
// joint search tries a dozen plans, sampled training partitions every
// mini-batch — stops allocating sort columns and stamp arrays.
var partitionerPool = sync.Pool{New: func() any { return NewPartitioner() }}

// PartitionGraph applies plan to g with the paper's greedy method: sort
// edges by the restricted attributes (Min attributes first so similar
// values cluster, then Exact attributes), scan in order, and close the
// current gTask when adding the next edge would violate an Exact
// restriction. statAttrs lists the attributes whose per-task unique counts
// the caller needs (the model's indexing attributes plus any inherent
// attributes the pattern analysis wants); restricted attributes are always
// included.
//
// The implementation is the linear-time engine in partitioner.go (stable
// LSD radix sort, epoch-stamped unique trackers); its output is
// byte-identical to the specification in reference_test.go for every plan.
// To partition one graph under many plans, partition through one Table.
func PartitionGraph(g *graph.Graph, plan GraphPlan, statAttrs []Attr) *Partition {
	return NewTable(g).Partition(plan, statAttrs)
}

// Validate checks partition invariants: Order is a permutation of the
// edges, offsets are monotone and cover [0, E], and recorded unique counts
// match a recount. It is used by tests and the property suite.
func (p *Partition) Validate() error {
	e := p.Graph.NumEdges()
	if len(p.Order) != e {
		return fmt.Errorf("core: order has %d entries for %d edges", len(p.Order), e)
	}
	seen := make([]bool, e)
	for _, x := range p.Order {
		if x < 0 || int(x) >= e || seen[x] {
			return fmt.Errorf("core: order is not a permutation (edge %d)", x)
		}
		seen[x] = true
	}
	if len(p.TaskOffsets) < 1 || p.TaskOffsets[0] != 0 || int(p.TaskOffsets[len(p.TaskOffsets)-1]) != e {
		return fmt.Errorf("core: offsets %v do not cover %d edges", p.TaskOffsets, e)
	}
	reader := NewAttrReader(p.Graph)
	for t := 0; t < p.NumTasks(); t++ {
		if p.TaskOffsets[t+1] <= p.TaskOffsets[t] {
			return fmt.Errorf("core: empty task %d", t)
		}
		for a := Attr(0); a < NumAttrs; a++ {
			if p.Uniq[a] == nil {
				continue
			}
			set := map[int32]struct{}{}
			for _, ei := range p.TaskEdges(t) {
				set[reader.Value(a, int(ei))] = struct{}{}
			}
			if int32(len(set)) != p.Uniq[a][t] {
				return fmt.Errorf("core: task %d uniq(%s) recorded %d, actual %d", t, a, p.Uniq[a][t], len(set))
			}
		}
	}
	return nil
}
