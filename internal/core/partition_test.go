package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"wisegraph/internal/graph"
	"wisegraph/internal/graph/gen"
	"wisegraph/internal/tensor"
)

// paperGraph reproduces the example of Figure 5(a): 5 vertices, 11 edges,
// types a/b, with the exact edge-attribute table printed in the figure:
//
//	Edge ID:   0 1 2 3 4 5 6 7 8 9 10
//	Dst ID:    0 0 1 1 1 2 2 2 3 3 4
//	Src ID:    0 1 0 1 2 2 3 4 3 4 0
//	Edge Type: a a a a b a b b b b a
func paperGraph() *graph.Graph {
	return &graph.Graph{
		NumVertices: 5,
		NumTypes:    2,
		Dst:         []int32{0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 4},
		Src:         []int32{0, 1, 0, 1, 2, 2, 3, 4, 3, 4, 0},
		Type:        []int32{0, 0, 0, 0, 1, 0, 1, 1, 1, 1, 0},
	}
}

func allAttrs() []Attr {
	return []Attr{AttrEdgeID, AttrSrcID, AttrDstID, AttrEdgeType, AttrSrcDegree, AttrDstDegree}
}

func TestAttrReaderValues(t *testing.T) {
	g := paperGraph()
	r := NewAttrReader(g)
	if r.Value(AttrSrcID, 4) != 2 || r.Value(AttrDstID, 4) != 1 || r.Value(AttrEdgeType, 4) != 1 {
		t.Fatalf("edge 4 attributes wrong")
	}
	if r.Value(AttrEdgeID, 7) != 7 {
		t.Fatalf("edge-id attribute wrong")
	}
	// vertex 0 out-degree: edges 0, 2, 10 → 3
	if r.Value(AttrSrcDegree, 0) != 3 {
		t.Fatalf("src-degree = %d, want 3", r.Value(AttrSrcDegree, 0))
	}
	// vertex 1 in-degree: edges 2,3,4 → 3
	if r.Value(AttrDstDegree, 2) != 3 {
		t.Fatalf("dst-degree = %d, want 3", r.Value(AttrDstDegree, 2))
	}
}

func TestVertexCentricPartition(t *testing.T) {
	g := paperGraph()
	p := PartitionGraph(g, VertexCentric(), allAttrs())
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// One gTask per destination with in-edges: vertices 0..4 → 5 tasks.
	if p.NumTasks() != 5 {
		t.Fatalf("vertex-centric tasks = %d, want 5", p.NumTasks())
	}
	for ti := 0; ti < p.NumTasks(); ti++ {
		if p.TaskUniq(ti, AttrDstID) != 1 {
			t.Fatalf("task %d has %d unique dsts", ti, p.TaskUniq(ti, AttrDstID))
		}
	}
	// in-degrees are 2,3,3,2,1
	lens := []int{p.TaskLen(0), p.TaskLen(1), p.TaskLen(2), p.TaskLen(3), p.TaskLen(4)}
	want := []int{2, 3, 3, 2, 1}
	for i := range want {
		if lens[i] != want[i] {
			t.Fatalf("task sizes %v, want %v", lens, want)
		}
	}
}

func TestEdgeCentricPartition(t *testing.T) {
	g := paperGraph()
	p := PartitionGraph(g, EdgeCentric(), nil)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.NumTasks() != g.NumEdges() {
		t.Fatalf("edge-centric tasks = %d, want %d", p.NumTasks(), g.NumEdges())
	}
}

func TestWholeGraphPartition(t *testing.T) {
	g := paperGraph()
	p := PartitionGraph(g, WholeGraph(), allAttrs())
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.NumTasks() != 1 || p.TaskLen(0) != 11 {
		t.Fatalf("whole-graph should be one task of 11 edges")
	}
	if p.TaskUniq(0, AttrSrcID) != 5 || p.TaskUniq(0, AttrEdgeType) != 2 {
		t.Fatalf("whole-graph uniq stats wrong: src=%d type=%d",
			p.TaskUniq(0, AttrSrcID), p.TaskUniq(0, AttrEdgeType))
	}
}

func TestDstTypePartition(t *testing.T) {
	// Figure 7(d): uniq(dst-id)=1 & uniq(edge-type)=1.
	g := paperGraph()
	plan := GraphPlan{Name: "dst1-type1", Restrictions: []Restriction{
		{Attr: AttrDstID, Kind: Exact, Limit: 1},
		{Attr: AttrEdgeType, Kind: Exact, Limit: 1},
	}}
	p := PartitionGraph(g, plan, allAttrs())
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// dst 0: type a only → 1 task; dst 1: a,a then b → 2; dst 2: a then
	// b,b → 2; dst 3: b,b → 1; dst 4: a → 1. Total 7.
	if p.NumTasks() != 7 {
		t.Fatalf("tasks = %d, want 7", p.NumTasks())
	}
	for ti := 0; ti < p.NumTasks(); ti++ {
		if p.TaskUniq(ti, AttrDstID) != 1 || p.TaskUniq(ti, AttrEdgeType) != 1 {
			t.Fatalf("task %d violates restrictions", ti)
		}
	}
}

func TestDstBatch2Partition(t *testing.T) {
	// Figure 7(c): uniq(dst-id)=2.
	g := paperGraph()
	plan := GraphPlan{Name: "dst2", Restrictions: []Restriction{{Attr: AttrDstID, Kind: Exact, Limit: 2}}}
	p := PartitionGraph(g, plan, allAttrs())
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// dsts {0,1} (5 edges), {2,3} (5 edges), {4} (1 edge) → 3 tasks.
	if p.NumTasks() != 3 {
		t.Fatalf("tasks = %d, want 3", p.NumTasks())
	}
	for ti := 0; ti < p.NumTasks(); ti++ {
		if p.TaskUniq(ti, AttrDstID) > 2 {
			t.Fatalf("task %d has %d unique dsts", ti, p.TaskUniq(ti, AttrDstID))
		}
	}
}

func TestSrcBatchTypePartition(t *testing.T) {
	// The RGCN plan: uniq(src-id)=K & uniq(edge-type)=1 groups same-type
	// edges batched by source.
	g := paperGraph()
	plan := GraphPlan{Name: "src2-type1", Restrictions: []Restriction{
		{Attr: AttrSrcID, Kind: Exact, Limit: 2},
		{Attr: AttrEdgeType, Kind: Exact, Limit: 1},
	}}
	p := PartitionGraph(g, plan, allAttrs())
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	for ti := 0; ti < p.NumTasks(); ti++ {
		if p.TaskUniq(ti, AttrEdgeType) != 1 {
			t.Fatalf("task %d mixes types", ti)
		}
		if p.TaskUniq(ti, AttrSrcID) > 2 {
			t.Fatalf("task %d has %d unique srcs", ti, p.TaskUniq(ti, AttrSrcID))
		}
	}
}

func TestDegreeMinPadding(t *testing.T) {
	// Figure 7(h): uniq(dst-id)=3 & uniq(dst-degree)=min. Sorting by
	// degree first groups same-degree destinations, so most tasks see a
	// single unique degree.
	g := paperGraph()
	plan := GraphPlan{Name: "dst3-degmin", Restrictions: []Restriction{
		{Attr: AttrDstID, Kind: Exact, Limit: 3},
		{Attr: AttrDstDegree, Kind: Min},
	}}
	p := PartitionGraph(g, plan, allAttrs())
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// degrees: v0=2 v1=3 v2=3 v3=2 v4=1 → sorted by degree: v4(1),
	// v0,v3(2), v1,v2(3). Tasks of ≤3 dsts: {4,0,3} then {1,2}.
	if p.NumTasks() != 2 {
		t.Fatalf("tasks = %d, want 2", p.NumTasks())
	}
	if p.TaskUniq(1, AttrDstDegree) != 1 {
		t.Fatalf("second task should have one unique degree, got %d", p.TaskUniq(1, AttrDstDegree))
	}
}

func TestTaskOfEdgeCoversAllEdges(t *testing.T) {
	g := paperGraph()
	p := PartitionGraph(g, VertexCentric(), nil)
	tid := p.TaskOfEdge()
	if len(tid) != g.NumEdges() {
		t.Fatalf("TaskOfEdge length %d", len(tid))
	}
	for e, id := range tid {
		if id < 0 || int(id) >= p.NumTasks() {
			t.Fatalf("edge %d has invalid task %d", e, id)
		}
	}
	// edges 0 and 1 share dst 0 → same task
	if tid[0] != tid[1] {
		t.Fatal("edges with same dst must share vertex-centric task")
	}
}

// TestEnumeratePlansCoverage pins the exact plan list, in order, for
// each model's indexing attributes (nn.ModelKind.IndexAttrs: RGCN indexes
// the edge type, the other four only the two endpoints), so the type
// plans appear for RGCN alone.
func TestEnumeratePlansCoverage(t *testing.T) {
	untyped := []string{"vertex-centric", "edge-centric",
		"edge-batch-32", "dst-batch-32", "dst1-edge-32", "2d-32", "dst-32-degmin",
		"edge-batch-128", "dst-batch-128", "dst1-edge-128", "2d-128", "dst-128-degmin",
		"deg1"}
	for _, tc := range []struct {
		model string
		attrs []Attr
		want  []string
	}{
		{"GCN", []Attr{AttrSrcID, AttrDstID}, untyped},
		{"SAGE", []Attr{AttrSrcID, AttrDstID}, untyped},
		{"GAT", []Attr{AttrSrcID, AttrDstID}, untyped},
		{"SAGE-LSTM", []Attr{AttrSrcID, AttrDstID}, untyped},
		{"RGCN", []Attr{AttrSrcID, AttrDstID, AttrEdgeType}, []string{"vertex-centric", "edge-centric",
			"edge-batch-32", "dst-batch-32", "dst1-edge-32", "2d-32", "src-32-type-1", "dst-32-degmin",
			"edge-batch-128", "dst-batch-128", "dst1-edge-128", "2d-128", "src-128-type-1", "dst-128-degmin",
			"dst1-type1", "type1", "deg1"}},
	} {
		var got []string
		for _, p := range EnumeratePlans(tc.attrs) {
			got = append(got, p.Name)
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("%s: plans %v, want %v", tc.model, got, tc.want)
		}
	}
}

func TestRestricted(t *testing.T) {
	plan := GraphPlan{Restrictions: []Restriction{
		{Attr: AttrDstID, Kind: Exact, Limit: 3},
		{Attr: AttrDstDegree, Kind: Min},
	}}
	if k, ok := plan.Restricted(AttrDstID); !ok || k != 3 {
		t.Fatal("Restricted(dst) wrong")
	}
	if _, ok := plan.Restricted(AttrSrcID); ok {
		t.Fatal("src should be unrestricted")
	}
	if _, ok := plan.Restricted(AttrDstDegree); ok {
		t.Fatal("a Min restriction is not an Exact one")
	}
	// DstBatch takes a plan whose one restriction is an Exact dst-id one,
	// and of the enumerated plans exactly these.
	if _, ok := plan.DstBatch(); ok {
		t.Fatal("DstBatch accepted a plan with a second restriction")
	}
	var batches []string
	for _, p := range EnumeratePlans([]Attr{AttrSrcID, AttrDstID, AttrEdgeType}) {
		if k, ok := p.DstBatch(); ok {
			batches = append(batches, fmt.Sprintf("%s/%d", p.Name, k))
		}
	}
	if got := strings.Join(batches, " "); got != "vertex-centric/1 dst-batch-32/32 dst-batch-128/128" {
		t.Fatalf("DstBatch accepts %q", got)
	}
	for _, p := range []GraphPlan{
		WholeGraph(),
		{Restrictions: []Restriction{{Attr: AttrDstID, Kind: Min}}},
		{Restrictions: []Restriction{{Attr: AttrDstID, Kind: Exact, Limit: 0}}},
	} {
		if _, ok := p.DstBatch(); ok {
			t.Fatalf("DstBatch accepted %v", p)
		}
	}
}

func TestPlanStrings(t *testing.T) {
	s := VertexCentric().String()
	if s != "vertex-centric{uniq(dst-id)=1}" {
		t.Fatalf("plan string = %q", s)
	}
}

// Property: for random graphs and random plans from the enumeration,
// partitions always validate and respect their Exact restrictions.
func TestPropPartitionInvariants(t *testing.T) {
	plans := EnumeratePlans([]Attr{AttrSrcID, AttrDstID, AttrEdgeType})
	f := func(seed uint64, planIdx uint8, vSmall, eSmall uint8) bool {
		v := int(vSmall%40) + 2
		e := int(eSmall%120) + 1
		res := gen.Generate(gen.Config{NumVertices: v, NumEdges: e, Kind: gen.PowerLaw, Skew: 0.9, NumTypes: 3, Seed: seed})
		plan := plans[int(planIdx)%len(plans)]
		p := PartitionGraph(res.Graph, plan, allAttrs())
		if err := p.Validate(); err != nil {
			t.Logf("plan %v: %v", plan, err)
			return false
		}
		for ti := 0; ti < p.NumTasks(); ti++ {
			for _, r := range plan.Restrictions {
				if r.Kind != Exact {
					continue
				}
				if int(p.TaskUniq(ti, r.Attr)) > r.Limit {
					t.Logf("plan %v task %d violates %v", plan, ti, r)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: the greedy partitioner is O(E)-ish in task growth — the number
// of tasks never exceeds the edge count and every edge appears exactly once.
func TestPropPartitionCoversEdges(t *testing.T) {
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		v := rng.Intn(30) + 2
		e := rng.Intn(100) + 1
		res := gen.Generate(gen.Config{NumVertices: v, NumEdges: e, Kind: gen.Uniform, Seed: seed})
		p := PartitionGraph(res.Graph, VertexCentric(), nil)
		if p.NumTasks() > e {
			return false
		}
		total := 0
		for ti := 0; ti < p.NumTasks(); ti++ {
			total += p.TaskLen(ti)
		}
		return total == e
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
