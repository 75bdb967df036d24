package core

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"sort"
	"sync"
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
	// Copies already in a key's order, as serving blocks arrive: every plan
	// keyed on that prefix takes the sorted-input skip, the rest still sort.
	for _, name := range []string{"power-law", "rmat-typed"} {
		gs[name+"/dst-sorted"] = sortedCopy(gs[name], AttrDstID)
		gs[name+"/dst-src-sorted"] = sortedCopy(gs[name], AttrDstID, AttrSrcID)
	}
	for name, g := range gs {
		if err := g.Validate(); err != nil {
			tb.Fatalf("%s: %v", name, err)
		}
	}
	return gs
}

// sortedCopy returns g with its edges stably reordered by the key columns.
func sortedCopy(g *graph.Graph, key ...Attr) *graph.Graph {
	reader := NewAttrReader(g)
	order := make([]int32, g.NumEdges())
	for i := range order {
		order[i] = int32(i)
	}
	sort.SliceStable(order, func(i, j int) bool {
		for _, a := range key {
			if vi, vj := reader.Value(a, int(order[i])), reader.Value(a, int(order[j])); vi != vj {
				return vi < vj
			}
		}
		return false
	})
	out := &graph.Graph{NumVertices: g.NumVertices, NumTypes: g.NumTypes}
	for _, e := range order {
		out.Src = append(out.Src, g.Src[e])
		out.Dst = append(out.Dst, g.Dst[e])
		if g.Type != nil {
			out.Type = append(out.Type, g.Type[e])
		}
	}
	return out
}

// TestSortedBy: the sorted-input check is lexicographic over the key
// columns, first column most significant, and exits false at any descent.
func TestSortedBy(t *testing.T) {
	for _, tc := range []struct {
		name string
		cols [][]int32
		want bool
	}{
		{"empty", [][]int32{{}}, true},
		{"one-edge", [][]int32{{5}}, true},
		{"ascending", [][]int32{{0, 1, 1, 3}}, true},
		{"descent-at-last-edge", [][]int32{{0, 1, 2, 3, 1}}, false},
		{"descent-at-first-edge", [][]int32{{1, 0, 2, 3}}, false},
		{"tie-broken-by-later-column", [][]int32{{0, 1, 1, 2}, {9, 3, 4, 0}}, true},
		{"tie-descends-in-later-column", [][]int32{{0, 1, 1, 2}, {9, 4, 3, 0}}, false},
		{"later-column-ignored-on-ascent", [][]int32{{0, 1, 2}, {5, 4, 3}}, true},
		{"full-tie", [][]int32{{2, 2, 2}, {7, 7, 7}}, true},
		{"descent-at-last-edge-second-column", [][]int32{{0, 0, 0}, {1, 2, 1}}, false},
	} {
		if got := sortedBy(tc.cols); got != tc.want {
			t.Errorf("%s: sortedBy = %v, want %v", tc.name, got, tc.want)
		}
	}
	// The parity graphs' sorted copies take the skip under their own key
	// and a vertex-centric plan; the generated originals do not.
	gs := parityGraphs(t)
	cols := func(g *graph.Graph, key ...Attr) [][]int32 {
		reader := NewAttrReader(g)
		out := make([][]int32, len(key))
		for i, a := range key {
			for e := 0; e < g.NumEdges(); e++ {
				out[i] = append(out[i], reader.Value(a, e))
			}
		}
		return out
	}
	for _, name := range []string{"power-law", "rmat-typed"} {
		if sortedBy(cols(gs[name], AttrDstID)) {
			t.Errorf("%s: generated edges already in dst order", name)
		}
		if !sortedBy(cols(gs[name+"/dst-sorted"], sortKey(VertexCentric())...)) {
			t.Errorf("%s/dst-sorted: not in the vertex-centric key order", name)
		}
		if !sortedBy(cols(gs[name+"/dst-src-sorted"], AttrDstID, AttrSrcID)) {
			t.Errorf("%s/dst-src-sorted: not in (dst, src) order", name)
		}
	}
}

func parityPlans(g *graph.Graph) []GraphPlan {
	plans := []GraphPlan{WholeGraph(), VertexCentric(), EdgeCentric()}
	idx := []Attr{AttrSrcID, AttrDstID}
	if g.NumTypes > 1 {
		idx = append(idx, AttrEdgeType)
	}
	plans = append(plans, EnumeratePlans(idx)...)
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

// dstRowPtr returns the row pointers of g's edges with one row per vertex
// (a vertex without in-edges is an empty row), or false when the edges do
// not arrive grouped by ascending destination, which PartitionRows needs.
func dstRowPtr(g *graph.Graph) ([]int32, bool) {
	if !slices.IsSorted(g.Dst) {
		return nil, false
	}
	rowPtr := make([]int32, g.NumVertices+1)
	for _, d := range g.Dst {
		rowPtr[d+1]++
	}
	for v := 1; v < len(rowPtr); v++ {
		rowPtr[v] += rowPtr[v-1]
	}
	return rowPtr, true
}

// TestPartitionParityWithReference checks that the optimized partitioner
// (radix sort + stamped trackers) is byte-identical to the retained
// reference for every plan in the default plan space, across graph shapes,
// and that on every graph already grouped by destination the partition
// read off its row pointers (PartitionRows) is too, under each
// destination-batch plan.
func TestPartitionParityWithReference(t *testing.T) {
	stat := []Attr{AttrSrcID, AttrDstID, AttrEdgeType, AttrDstDegree}
	pt := NewPartitioner()
	defer pt.Release()
	born := map[string]int{}
	for name, g := range parityGraphs(t) {
		rowPtr, grouped := dstRowPtr(g)
		for _, plan := range parityPlans(g) {
			want := PartitionGraphReference(g, plan, stat)
			got := PartitionGraph(g, plan, stat)
			label := name + "/" + plan.String()
			comparePartitions(t, label, want, got)
			if err := got.Validate(); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if _, ok := plan.DstBatch(); ok && grouped {
				comparePartitions(t, label+"/rows", want, pt.PartitionRows(g, plan, stat, rowPtr))
				born[name]++
			}
		}
	}
	// The born partition met the empty graph, a graph with vertices that
	// have no in-edges, and typed and untyped graphs in dst order, each
	// under vertex-centric (twice: the named plan and the enumerated one),
	// dst-batch-32 and dst-batch-128.
	for _, name := range []string{"empty", "one-edge", "power-law/dst-sorted", "rmat-typed/dst-src-sorted"} {
		if born[name] != 4 {
			t.Errorf("%s: %d born partitions compared, want 4", name, born[name])
		}
	}

	// Every plan of the search space, partitioned through one Table in a
	// shuffled order: each sort key's order is sorted by whichever plan
	// reaches it first and then shared, so a plan must come out the same
	// whether it sorted its key or found it sorted. Every attribute's
	// column is counted, and the untyped graphs ("power-law",
	// "uniform-small") run the type-restricted plans over a nil type
	// column.
	for name, g := range parityGraphs(t) {
		plans := tablePlans()
		rand.New(rand.NewPCG(uint64(len(name)), uint64(g.NumEdges()))).Shuffle(len(plans), func(i, j int) {
			plans[i], plans[j] = plans[j], plans[i]
		})
		tab := NewTable(g)
		byKey := map[string]*Partition{}
		for _, plan := range plans {
			label := name + "/table/" + plan.String()
			got := pt.partition(tab, plan, allAttrs())
			comparePartitions(t, label, PartitionGraphReference(g, plan, allAttrs()), got)
			// Plans with one sort key share one order.
			key := fmt.Sprint(sortKey(plan))
			if first := byKey[key]; first == nil {
				byKey[key] = got
			} else if g.NumEdges() > 0 && &first.Order[0] != &got.Order[0] {
				t.Fatalf("%s: sort key %s sorted again after %v", label, key, first.Plan)
			}
		}
	}
}

// tablePlans is the search space of every model — EnumeratePlans over
// each set of indexing attributes the DFGs can use (a superset of the five
// models' nn.ModelKind.IndexAttrs), each plan once — plus the plans whose
// sort key holds edge-id: first (the key cuts to nothing, and an identity
// order under a dst-id restriction), and before another attribute (the
// cut drops it).
func tablePlans() []GraphPlan {
	plans := []GraphPlan{
		WholeGraph(),
		{Name: "edge-first", Restrictions: []Restriction{
			{Attr: AttrDstID, Kind: Exact, Limit: 64},
			{Attr: AttrEdgeID, Kind: Exact, Limit: 16},
		}},
		{Name: "edge-mid", Restrictions: []Restriction{
			{Attr: AttrSrcID, Kind: Exact, Limit: 64},
			{Attr: AttrDstID, Kind: Exact, Limit: 1},
			{Attr: AttrEdgeID, Kind: Exact, Limit: 8},
		}},
		{Name: "edge-min", Restrictions: []Restriction{
			{Attr: AttrEdgeID, Kind: Min},
			{Attr: AttrSrcID, Kind: Exact, Limit: 4},
		}},
	}
	seen := map[string]bool{}
	idx := []Attr{AttrSrcID, AttrDstID, AttrEdgeType}
	for set := 0; set < 1<<len(idx); set++ {
		var attrs []Attr
		for i, a := range idx {
			if set&(1<<i) != 0 {
				attrs = append(attrs, a)
			}
		}
		for _, plan := range EnumeratePlans(attrs) {
			if !seen[plan.String()] {
				seen[plan.String()] = true
				plans = append(plans, plan)
			}
		}
	}
	return plans
}

// TestSortKeyCutsAtEdgeID: the sort key ends before its first edge-id,
// and an edge-id first leaves no key at all.
func TestSortKeyCutsAtEdgeID(t *testing.T) {
	plans := tablePlans()
	for _, plan := range plans {
		full, key := keyAttrs(plan), sortKey(plan)
		cut := slices.Index(full, AttrEdgeID)
		if cut < 0 {
			cut = len(full)
		}
		if !slices.Equal(key, full[:cut]) {
			t.Errorf("%v: sort key %v, want %v cut at edge-id", plan, key, full)
		}
	}
	for name, want := range map[string][]Attr{
		"dst1-edge-32":  {AttrDstID},
		"edge-first":    nil,
		"edge-mid":      {AttrDstID},
		"edge-min":      nil,
		"2d-32":         {AttrDstID, AttrSrcID},
		"dst-32-degmin": {AttrDstDegree, AttrDstID},
	} {
		i := slices.IndexFunc(plans, func(p GraphPlan) bool { return p.Name == name })
		if i < 0 {
			t.Fatalf("no plan %s", name)
		}
		if got := sortKey(plans[i]); !slices.Equal(got, want) {
			t.Errorf("%s: sort key %v, want %v", name, got, want)
		}
	}
}

// TestTableConcurrentPartitions partitions every plan through one Table
// from several goroutines at once: the first to reach a sort key sorts it
// while the others wait, and every partition still matches the reference.
func TestTableConcurrentPartitions(t *testing.T) {
	stat := []Attr{AttrSrcID, AttrDstID, AttrEdgeType, AttrDstDegree}
	g := parityGraphs(t)["rmat-typed"]
	plans := tablePlans()
	tab := NewTable(g)
	got := make([]*Partition, len(plans))
	var wg sync.WaitGroup
	for w := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(plans); i += 4 {
				got[i] = tab.Partition(plans[i], stat)
			}
		}()
	}
	wg.Wait()
	for i, plan := range plans {
		comparePartitions(t, plan.String(), PartitionGraphReference(g, plan, stat), got[i])
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
				// Interleaved on the same Partitioner, the born partition
				// continues the stamp generations Partition left, and
				// Partition continues its.
				if rowPtr, grouped := dstRowPtr(g); grouped {
					if _, ok := plan.DstBatch(); ok {
						born := pt.PartitionRows(g, plan, stat, rowPtr)
						comparePartitions(t, name+"/"+plan.String()+"/rows", want, born)
						comparePartitions(t, name+"/"+plan.String()+"/rows", got, born)
					}
				}
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
