package graph_test

import (
	"slices"
	"testing"

	"wisegraph/internal/dataset"
	"wisegraph/internal/graph"
)

// star is a hub: vertex 0 with deg in-edges, one from each other vertex.
func star(deg int) *graph.CSR {
	g := &graph.Graph{NumVertices: deg + 1, NumTypes: 1}
	for i := 1; i <= deg; i++ {
		g.Src = append(g.Src, int32(i))
		g.Dst = append(g.Dst, 0)
	}
	return g.BuildCSRByDst()
}

// TestDetSampleMatchesDenseShuffle: the sparse partial Fisher–Yates makes
// the dense shuffle's draws in the dense shuffle's order, so every slot of
// every sample is unchanged — which is what keeps every cached row and
// every logit what it was. Checked on every vertex of the benchmark's
// graph and on a hub far wider than the displaced-entry table.
func TestDetSampleMatchesDenseShuffle(t *testing.T) {
	ds, err := dataset.Load("AR", dataset.Options{Scale: 10, Seed: 1})
	if err != nil {
		t.Fatalf("dataset.Load: %v", err)
	}
	var scratch []int32
	for _, c := range []struct {
		name  string
		csr   *graph.CSR
		verts int
	}{
		{"AR scale 10", ds.Graph.BuildCSRByDst(), ds.Graph.NumVertices},
		{"degree-5000 hub", star(5000), 1},
	} {
		sampled := 0
		for _, fan := range []int{1, 3, 10, 25, 40} {
			for seed := uint64(1); seed <= 3; seed++ {
				for v := int32(0); int(v) < c.verts; v++ {
					want := graph.DetSampleDense(c.csr, v, fan, seed)
					// A non-empty dst must be appended to, not overwritten.
					scratch = append(scratch[:0], -7)
					scratch = graph.DetSample(scratch, c.csr, v, fan, seed)
					if scratch[0] != -7 || !slices.Equal(scratch[1:], want) {
						t.Fatalf("%s: vertex %d fan %d seed %d: slots %v, dense shuffle %v", c.name, v, fan, seed, scratch, want)
					}
					if int(c.csr.RowPtr[v+1]-c.csr.RowPtr[v]) > fan {
						sampled++
					}
				}
			}
		}
		if sampled == 0 {
			t.Fatalf("%s: no vertex has more in-edges than a fan-out — nothing was drawn", c.name)
		}
	}
}

// TestDetSampleAllocatesNothing when dst has room: it runs twice per
// vertex per level on the serving path.
func TestDetSampleAllocatesNothing(t *testing.T) {
	csr := star(500)
	dst := make([]int32, 0, 32)
	if n := testing.AllocsPerRun(100, func() { dst = graph.DetSample(dst[:0], csr, 0, 10, 1) }); n != 0 {
		t.Fatalf("DetSample allocates %v times per call into a dst with room", n)
	}
	// A nil dst is sized once, not grown slot by slot.
	if n := testing.AllocsPerRun(100, func() { dst = graph.DetSample(nil, csr, 0, 10, 1) }); n != 1 {
		t.Fatalf("DetSample allocates %v times per call into a nil dst, want 1", n)
	}
}
