package graph

import (
	"testing"
	"testing/quick"

	"wisegraph/internal/tensor"
)

// diamond returns a small typed test graph:
//
//	0 →a 2, 1 →a 2, 1 →b 3, 2 →b 3, 0 →a 3
func diamond() *Graph {
	return &Graph{
		NumVertices: 4,
		NumTypes:    2,
		Src:         []int32{0, 1, 1, 2, 0},
		Dst:         []int32{2, 2, 3, 3, 3},
		Type:        []int32{0, 0, 1, 1, 0},
	}
}

func TestValidateOK(t *testing.T) {
	if err := diamond().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesBadEdges(t *testing.T) {
	g := diamond()
	g.Dst[0] = 99
	if err := g.Validate(); err == nil {
		t.Fatal("expected out-of-range dst error")
	}
	g = diamond()
	g.Type[0] = 5
	if err := g.Validate(); err == nil {
		t.Fatal("expected out-of-range type error")
	}
	g = diamond()
	g.Src = g.Src[:3]
	if err := g.Validate(); err == nil {
		t.Fatal("expected length-mismatch error")
	}
}

func TestDegrees(t *testing.T) {
	g := diamond()
	in := g.InDegrees()
	out := g.OutDegrees()
	wantIn := []int32{0, 0, 2, 3}
	wantOut := []int32{2, 2, 1, 0}
	for v := 0; v < 4; v++ {
		if in[v] != wantIn[v] || out[v] != wantOut[v] {
			t.Fatalf("degrees v%d: in=%d out=%d, want %d/%d", v, in[v], out[v], wantIn[v], wantOut[v])
		}
	}
	if g.MaxInDegree() != 3 {
		t.Fatalf("MaxInDegree = %d", g.MaxInDegree())
	}
	if g.AvgDegree() != 5.0/4.0 {
		t.Fatalf("AvgDegree = %v", g.AvgDegree())
	}
}

func TestBuildCSRByDst(t *testing.T) {
	g := diamond()
	csr := g.BuildCSRByDst()
	if len(csr.RowPtr) != 5 {
		t.Fatalf("RowPtr length %d", len(csr.RowPtr))
	}
	// vertex 2 in-edges: from 0 (type a) and 1 (type a), original order
	if csr.RowPtr[2] != 0 || csr.RowPtr[3] != 2 || csr.RowPtr[4] != 5 {
		t.Fatalf("RowPtr = %v", csr.RowPtr)
	}
	if csr.Col[0] != 0 || csr.Col[1] != 1 {
		t.Fatalf("vertex 2 sources = %v", csr.Col[:2])
	}
	// every CSR slot must point at a consistent COO edge
	for v := 0; v < 4; v++ {
		for s := csr.RowPtr[v]; s < csr.RowPtr[v+1]; s++ {
			e := csr.EdgeID[s]
			if g.Dst[e] != int32(v) || g.Src[e] != csr.Col[s] || g.Type[e] != csr.EType[s] {
				t.Fatalf("CSR slot %d inconsistent with COO edge %d", s, e)
			}
		}
	}
}

func TestRelabelVertices(t *testing.T) {
	g := diamond()
	// reverse ids
	newID := []int32{3, 2, 1, 0}
	g.RelabelVertices(newID)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.Src[0] != 3 || g.Dst[0] != 1 {
		t.Fatalf("relabel wrong: edge0 = %d→%d", g.Src[0], g.Dst[0])
	}
}

func TestCloneIndependence(t *testing.T) {
	g := diamond()
	c := g.Clone()
	c.Src[0] = 3
	if g.Src[0] == 3 {
		t.Fatal("clone shares storage")
	}
}

func TestClusterReorderIsPermutation(t *testing.T) {
	g := diamond()
	newID := ClusterReorder(g)
	seen := make([]bool, len(newID))
	for _, id := range newID {
		if id < 0 || int(id) >= len(newID) || seen[id] {
			t.Fatalf("not a permutation: %v", newID)
		}
		seen[id] = true
	}
	g.RelabelVertices(newID)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestNeighborSampleRespectsFanout(t *testing.T) {
	// star: many sources into vertex 0
	n := 50
	g := &Graph{NumVertices: n, NumTypes: 1}
	for i := 1; i < n; i++ {
		g.Src = append(g.Src, int32(i))
		g.Dst = append(g.Dst, 0)
	}
	csr := g.BuildCSRByDst()
	rng := tensor.NewRNG(7)
	sub := NeighborSample(g, csr, []int32{0}, []int{5}, rng)
	if sub.Graph.NumEdges() != 5 {
		t.Fatalf("sampled %d edges, want 5", sub.Graph.NumEdges())
	}
	if sub.NumSeeds != 1 || sub.Vertices[0] != 0 {
		t.Fatalf("seed bookkeeping wrong: %+v", sub)
	}
	// sampled sources must be distinct
	seen := map[int32]bool{}
	for _, s := range sub.Graph.Src {
		parent := sub.Vertices[s]
		if seen[parent] {
			t.Fatalf("duplicate sampled neighbor %d", parent)
		}
		seen[parent] = true
	}
	if err := sub.Graph.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestNeighborSampleMultiHop(t *testing.T) {
	// chain 3→2→1→0; sampling 2 hops from 0 must reach vertex 2
	g := &Graph{NumVertices: 4, NumTypes: 1, Src: []int32{3, 2, 1}, Dst: []int32{2, 1, 0}}
	csr := g.BuildCSRByDst()
	sub := NeighborSample(g, csr, []int32{0}, []int{1, 1}, tensor.NewRNG(1))
	if sub.Graph.NumEdges() != 2 {
		t.Fatalf("sampled %d edges, want 2", sub.Graph.NumEdges())
	}
	found := false
	for _, v := range sub.Vertices {
		if v == 2 {
			found = true
		}
	}
	if !found {
		t.Fatal("2-hop neighbor not reached")
	}
}

func TestSubgraphGatherFeaturesAndLabels(t *testing.T) {
	g := &Graph{NumVertices: 3, NumTypes: 1, Src: []int32{1, 2}, Dst: []int32{0, 0}}
	csr := g.BuildCSRByDst()
	sub := NeighborSample(g, csr, []int32{0}, []int{2}, tensor.NewRNG(1))
	feat := tensor.FromSlice([]float32{10, 11, 12}, 3, 1)
	local := sub.GatherFeatures(feat)
	for i, v := range sub.Vertices {
		if local.At(i, 0) != feat.At(int(v), 0) {
			t.Fatalf("feature gather wrong at %d", i)
		}
	}
	labels := sub.GatherLabels([]int32{7, 8, 9})
	for i, v := range sub.Vertices {
		if labels[i] != []int32{7, 8, 9}[v] {
			t.Fatalf("label gather wrong at %d", i)
		}
	}
}

// Property: CSR round-trips the COO edge multiset for random graphs.
func TestPropCSRConsistency(t *testing.T) {
	f := func(seed uint64, vSmall, eSmall uint8) bool {
		v := int(vSmall%20) + 2
		e := int(eSmall%60) + 1
		rng := tensor.NewRNG(seed)
		g := &Graph{NumVertices: v, NumTypes: 3}
		for i := 0; i < e; i++ {
			g.Src = append(g.Src, int32(rng.Intn(v)))
			g.Dst = append(g.Dst, int32(rng.Intn(v)))
			g.Type = append(g.Type, int32(rng.Intn(3)))
		}
		csr := g.BuildCSRByDst()
		if int(csr.RowPtr[v]) != e {
			return false
		}
		for vtx := 0; vtx < v; vtx++ {
			for s := csr.RowPtr[vtx]; s < csr.RowPtr[vtx+1]; s++ {
				eid := csr.EdgeID[s]
				if g.Dst[eid] != int32(vtx) || g.Src[eid] != csr.Col[s] || g.Type[eid] != csr.EType[s] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
