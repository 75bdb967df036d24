package pattern

import (
	"testing"

	"wisegraph/internal/core"
	"wisegraph/internal/graph"
)

// paperGraph is the Figure 5(a) example.
func paperGraph() *graph.Graph {
	return &graph.Graph{
		NumVertices: 5,
		NumTypes:    2,
		Dst:         []int32{0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 4},
		Src:         []int32{0, 1, 0, 1, 2, 2, 3, 4, 3, 4, 0},
		Type:        []int32{0, 0, 0, 0, 1, 0, 1, 1, 1, 1, 0},
	}
}

var attrs = []core.Attr{core.AttrSrcID, core.AttrDstID, core.AttrEdgeType}

func TestAnalyzePlanPattern(t *testing.T) {
	g := paperGraph()
	p := core.PartitionGraph(g, core.VertexCentric(), attrs)
	pp := Analyze(p, attrs)
	if pp.NumTasks != 5 || pp.TotalEdges != 11 {
		t.Fatalf("plan pattern sizes: %+v", pp)
	}
	// in-degrees 2,3,3,2,1 → median 2
	if pp.MedianEdges != 2 {
		t.Fatalf("median edges = %d", pp.MedianEdges)
	}
	if pp.MinEdges != 1 || pp.MaxEdges != 3 {
		t.Fatalf("min/max edges %d/%d", pp.MinEdges, pp.MaxEdges)
	}
	// vertex-centric: one dst shared by every edge of a task — dst IS
	// duplicated wherever the degree exceeds one (the shared-output
	// pattern), and a single-edge task has no duplication at all.
	if !pp.Duplicated(core.AttrDstID) {
		t.Fatal("dst is duplicated across a vertex-centric task's edges")
	}
	ec := core.PartitionGraph(g, core.EdgeCentric(), attrs)
	ppEC := Analyze(ec, attrs)
	for _, a := range attrs {
		if ppEC.Duplicated(a) {
			t.Fatalf("edge-centric tasks hold one edge; %v cannot be duplicated", a)
		}
	}
	// one destination per task: every edge of the regular task lands on it
	rs := pp.RegularStats()
	if rs.Edges != 2 || rs.UniqDst != 1 || rs.MaxDeg != 2 {
		t.Fatalf("regular stats %+v, want 2 edges into 1 destination", rs)
	}
}

func TestAnalyzeEmptyPartition(t *testing.T) {
	g := &graph.Graph{NumVertices: 3, NumTypes: 1}
	p := core.PartitionGraph(g, core.VertexCentric(), attrs)
	pp := Analyze(p, attrs)
	if pp.NumTasks != 0 || pp.TotalEdges != 0 {
		t.Fatalf("empty graph pattern: %+v", pp)
	}
}
