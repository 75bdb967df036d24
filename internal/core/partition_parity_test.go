package core

import (
	"testing"

	"wisegraph/internal/graph"
	"wisegraph/internal/graph/gen"
)

func parityGraphs(tb testing.TB) map[string]*graph.Graph {
	gs := map[string]*graph.Graph{
		"empty": {NumVertices: 4, NumTypes: 1},
		"one-edge": {
			NumVertices: 3, NumTypes: 1,
			Src: []int32{2}, Dst: []int32{0},
		},
		"paper": paperGraph(),
		// Large enough for 16-bit radix digits (radixSmallLimit = 1<<14).
		"power-law": gen.Generate(gen.Config{
			NumVertices: 4000, NumEdges: 40000, Kind: gen.PowerLaw, Skew: 0.9, Seed: 7,
		}).Graph,
		"rmat-typed": gen.Generate(gen.Config{
			NumVertices: 3000, NumEdges: 36000, Kind: gen.RMAT, Skew: 0.7, NumTypes: 8, Seed: 11,
		}).Graph,
		"uniform-small": gen.Generate(gen.Config{
			NumVertices: 200, NumEdges: 1500, Kind: gen.Uniform, Seed: 3,
		}).Graph,
	}
	for name, g := range gs {
		if err := g.Validate(); err != nil {
			tb.Fatalf("%s: %v", name, err)
		}
	}
	return gs
}

func parityPlans(g *graph.Graph) []GraphPlan {
	plans := []GraphPlan{WholeGraph(), VertexCentric(), EdgeCentric()}
	idx := []Attr{AttrSrcID, AttrDstID, AttrEdgeType}
	plans = append(plans, EnumeratePlans(idx, DefaultPlanSpace(g.NumTypes > 1))...)
	return plans
}

func comparePartitions(t *testing.T, label string, want, got *Partition) {
	t.Helper()
	if len(got.Order) != len(want.Order) {
		t.Fatalf("%s: order length %d, want %d", label, len(got.Order), len(want.Order))
	}
	for i := range want.Order {
		if got.Order[i] != want.Order[i] {
			t.Fatalf("%s: order[%d] = %d, want %d", label, i, got.Order[i], want.Order[i])
		}
	}
	if len(got.TaskOffsets) != len(want.TaskOffsets) {
		t.Fatalf("%s: %d offsets, want %d\n got  %v\n want %v",
			label, len(got.TaskOffsets), len(want.TaskOffsets), head(got.TaskOffsets), head(want.TaskOffsets))
	}
	for i := range want.TaskOffsets {
		if got.TaskOffsets[i] != want.TaskOffsets[i] {
			t.Fatalf("%s: offsets[%d] = %d, want %d", label, i, got.TaskOffsets[i], want.TaskOffsets[i])
		}
	}
	for a := Attr(0); a < NumAttrs; a++ {
		w, gu := want.Uniq[a], got.Uniq[a]
		if (w == nil) != (gu == nil) {
			t.Fatalf("%s: uniq(%s) nil mismatch (want nil=%v, got nil=%v)", label, a, w == nil, gu == nil)
		}
		if len(w) != len(gu) {
			t.Fatalf("%s: uniq(%s) has %d entries, want %d", label, a, len(gu), len(w))
		}
		for i := range w {
			if gu[i] != w[i] {
				t.Fatalf("%s: uniq(%s)[%d] = %d, want %d", label, a, i, gu[i], w[i])
			}
		}
	}
}

func head(xs []int32) []int32 {
	if len(xs) > 12 {
		return xs[:12]
	}
	return xs
}

// TestPartitionParityWithReference checks that the optimized partitioner
// (radix sort + stamped trackers) is byte-identical to the retained
// reference for every plan in the default plan space, across graph shapes.
func TestPartitionParityWithReference(t *testing.T) {
	stat := []Attr{AttrSrcID, AttrDstID, AttrEdgeType, AttrDstDegree}
	for name, g := range parityGraphs(t) {
		for _, plan := range parityPlans(g) {
			want := PartitionGraphReference(g, plan, stat)
			got := PartitionGraph(g, plan, stat)
			label := name + "/" + plan.String()
			comparePartitions(t, label, want, got)
			if err := got.Validate(); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
		}
	}
}

// TestPartitionerReuseIsDeterministic partitions through one Partitioner
// repeatedly (alternating plans and graphs) so retained stamp buffers and
// generation counters carry across calls, and checks every call still
// matches the reference.
func TestPartitionerReuseIsDeterministic(t *testing.T) {
	stat := []Attr{AttrSrcID, AttrDstID, AttrEdgeType, AttrDstDegree}
	gs := parityGraphs(t)
	pt := NewPartitioner()
	for round := 0; round < 3; round++ {
		for name, g := range gs {
			for _, plan := range parityPlans(g) {
				want := PartitionGraphReference(g, plan, stat)
				got := pt.Partition(g, plan, stat)
				comparePartitions(t, name+"/"+plan.String(), want, got)
			}
		}
	}
	pt.Release()
	// Usable after Release: buffers are re-acquired on demand.
	g := gs["paper"]
	comparePartitions(t, "post-release",
		PartitionGraphReference(g, VertexCentric(), stat),
		pt.Partition(g, VertexCentric(), stat))
}
