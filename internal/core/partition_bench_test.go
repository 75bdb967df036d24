package core

import (
	"testing"

	"wisegraph/internal/graph"
	"wisegraph/internal/graph/gen"
)

// benchGraph approximates the AR dataset's shape at reduced scale: a
// typed power-law graph, the regime the partitioner runs in during the
// joint search and the sampled-training pipeline.
func benchGraph() *graph.Graph {
	return gen.Generate(gen.Config{
		NumVertices: 40000, NumEdges: 400000,
		Kind: gen.PowerLaw, Skew: 0.9, NumTypes: 8, Seed: 42,
	}).Graph
}

// benchPlans covers the plan shapes the search actually sweeps: single
// tight restriction, multi-attribute restrictions, counter-only batching,
// and the unrestricted whole-graph degenerate. dst1-edge-32, whose sort
// key is cut at edge-id to dst-id alone, and 2d-32, sorted by (dst, src),
// are the two sorts the one-sort-per-key table changed.
func benchPlans() []GraphPlan {
	return []GraphPlan{
		VertexCentric(),
		{Name: "dst1-edge-32", Restrictions: []Restriction{
			{Attr: AttrDstID, Kind: Exact, Limit: 1},
			{Attr: AttrEdgeID, Kind: Exact, Limit: 32},
		}},
		{Name: "2d-32", Restrictions: []Restriction{
			{Attr: AttrDstID, Kind: Exact, Limit: 32},
			{Attr: AttrSrcID, Kind: Exact, Limit: 32},
		}},
		{Name: "src32-type1", Restrictions: []Restriction{
			{Attr: AttrSrcID, Kind: Exact, Limit: 32},
			{Attr: AttrEdgeType, Kind: Exact, Limit: 1},
		}},
		{Name: "dst32-degmin", Restrictions: []Restriction{
			{Attr: AttrDstID, Kind: Exact, Limit: 32},
			{Attr: AttrDstDegree, Kind: Min},
		}},
		{Name: "edge-batch128", Restrictions: []Restriction{
			{Attr: AttrEdgeID, Kind: Exact, Limit: 128},
		}},
		WholeGraph(),
	}
}

var benchStatAttrs = []Attr{AttrSrcID, AttrDstID, AttrEdgeType, AttrDstDegree}

// BenchmarkPartitionGraph compares the retained sequential reference
// (comparator sort + hash-map trackers) against the optimized engine
// (radix sort + stamped trackers).
func BenchmarkPartitionGraph(b *testing.B) {
	g := benchGraph()
	g.InDegrees() // warm degree caches outside the timed region
	g.OutDegrees()
	for _, plan := range benchPlans() {
		b.Run("reference/"+plan.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				PartitionGraphReference(g, plan, benchStatAttrs)
			}
		})
		b.Run("optimized/"+plan.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				PartitionGraph(g, plan, benchStatAttrs)
			}
		})
	}
}
