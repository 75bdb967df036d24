package dist

import (
	"testing"

	"wisegraph/internal/graph"
	"wisegraph/internal/graph/gen"
	"wisegraph/internal/nn"
)

func TestCollectiveCosts(t *testing.T) {
	c := NewCluster(4)
	if c.AllToAll(0) != c.Link.Alpha {
		t.Fatal("zero-volume all-to-all should cost one alpha")
	}
	// single device: no communication
	one := NewCluster(1)
	if one.AllToAll(1e9) != 0 || one.ReduceScatter(1e9) != 0 {
		t.Fatal("single-device collectives must be free")
	}
	// ring reduce-scatter moves (N-1)/N of the volume
	rs := (c.ReduceScatter(1e9) - c.Link.Alpha) * c.Link.Bandwidth
	if rs < 0.749e9 || rs > 0.751e9 {
		t.Fatalf("reduce-scatter moved %v bytes, want 0.75e9", rs)
	}
	// more volume, more time
	if c.AllToAll(2e9) <= c.AllToAll(1e9) {
		t.Fatal("collective cost must grow with volume")
	}
}

func TestAnalyzeCrossEdges(t *testing.T) {
	// 4 vertices on 2 devices: {0,1} and {2,3}
	g := &graph.Graph{NumVertices: 4, NumTypes: 1,
		Src: []int32{0, 2, 3, 1, 0},
		Dst: []int32{1, 1, 1, 3, 1},
	}
	gs := Analyze(g, 2)
	// edges into dst 1 (device 0) from srcs 2 and 3 (device 1) → 2 cross;
	// edge 1→3 crosses into device 1 → 3 cross total
	if gs.CrossEdges != 3 {
		t.Fatalf("cross edges = %d, want 3", gs.CrossEdges)
	}
	// unique remote (device,src) pairs: (dev0,2), (dev0,3), (dev1,1)
	if gs.UniqRemoteSrc != 3 {
		t.Fatalf("unique remote srcs = %d, want 3", gs.UniqRemoteSrc)
	}
	// duplicates dedup: add another 2→1 edge
	g.Src = append(g.Src, 2)
	g.Dst = append(g.Dst, 0)
	gs = Analyze(g, 2)
	if gs.UniqRemoteSrc != 3 {
		t.Fatalf("repeated remote src must not add volume: %d", gs.UniqRemoteSrc)
	}
	if gs.CrossEdges != 4 {
		t.Fatalf("cross edges = %d, want 4", gs.CrossEdges)
	}
}

func testGS() (Cluster, GraphStats) {
	g := gen.Generate(gen.Config{NumVertices: 2000, NumEdges: 30000, Kind: gen.PowerLaw, Skew: 1.0, Seed: 3}).Graph
	return NewCluster(4), Analyze(g, 4)
}

func TestDPPostWinsWhenOutputSmaller(t *testing.T) {
	c, gs := testGS()
	// shrinking layer: 256 → 32. Shipping outputs beats shipping inputs.
	pre := PlaceLayer(c, gs, nn.GCN, 256, 32, DPPre, true, false)
	post := PlaceLayer(c, gs, nn.GCN, 256, 32, DPPost, true, false)
	if post.CommBytes >= pre.CommBytes {
		t.Fatalf("post volume %v must beat pre %v for shrinking layers", post.CommBytes, pre.CommBytes)
	}
	// expanding layer: 32 → 256: pre wins.
	pre2 := PlaceLayer(c, gs, nn.GCN, 32, 256, DPPre, true, false)
	post2 := PlaceLayer(c, gs, nn.GCN, 32, 256, DPPost, true, false)
	if pre2.CommBytes >= post2.CommBytes {
		t.Fatalf("pre volume %v must beat post %v for expanding layers", pre2.CommBytes, post2.CommBytes)
	}
}

func TestChooseLayerIsMinimum(t *testing.T) {
	c, gs := testGS()
	for _, dims := range [][2]int{{256, 32}, {32, 256}, {128, 128}} {
		best := ChooseLayer(c, gs, nn.SAGE, dims[0], dims[1], true, true)
		for _, s := range []Strategy{DPPre, DPPost, TP} {
			p := PlaceLayer(c, gs, nn.SAGE, dims[0], dims[1], s, true, true)
			if p.Total() < best.Total()-1e-12 {
				t.Fatalf("ChooseLayer missed better strategy %v for %v", s, dims)
			}
		}
	}
}

func TestWisePolicyNeverLosesToStaticPolicies(t *testing.T) {
	c, gs := testGS()
	dims := []int{384, 32, 32, 64}
	wise := IterationTime(c, gs, nn.GCN, dims, PolicyWise)
	for _, pol := range []Policy{PolicyDGCL, PolicyP3} {
		if got := IterationTime(c, gs, nn.GCN, dims, pol); got < wise-1e-12 {
			t.Fatalf("%v beat WiseGraph: %v vs %v", pol, got, wise)
		}
	}
}

func TestP3CrossoverWithHiddenDim(t *testing.T) {
	// Paper Table 2 / Figure 20: P3's static hybrid wins for large input
	// dims (FS-S, dim 384) and loses for small hidden dims where data
	// parallel suffices (PA-S, dim 128).
	c, gs := testGS()
	// large input dim: P3's layer-1 TP avoids the huge feature all-to-all
	p3Large := IterationTime(c, gs, nn.GCN, []int{1024, 32, 32}, PolicyP3)
	dglLarge := IterationTime(c, gs, nn.GCN, []int{1024, 32, 32}, PolicyDGL)
	if p3Large >= dglLarge {
		t.Fatalf("P3 should win at large input dim: %v vs %v", p3Large, dglLarge)
	}
	// small dims with a large vertex set: TP's V×F' reduce-scatter hurts
	p3Small := IterationTime(c, gs, nn.GCN, []int{16, 256, 256}, PolicyP3)
	dglSmall := IterationTime(c, gs, nn.GCN, []int{16, 256, 256}, PolicyDGL)
	if p3Small <= dglSmall {
		t.Fatalf("P3 should lose at small input dim: %v vs %v", p3Small, dglSmall)
	}
}

func TestIterationTimeOrderingTable2(t *testing.T) {
	// Table 2 shape: WiseGraph < ROC < DGL on full graphs. The replica
	// stats are scaled to a paper-size graph so volumes dominate the
	// fixed collective latencies, as they do on the real billion-edge
	// datasets.
	c, gs := testGS()
	gs.V *= 1000
	gs.E *= 1000
	gs.CrossEdges *= 1000
	gs.UniqRemoteSrc *= 1000
	gs.MaxDeviceEdges *= 1000
	dims := []int{128, 32, 32, 32}
	wise := IterationTime(c, gs, nn.GCN, dims, PolicyWise)
	roc := IterationTime(c, gs, nn.GCN, dims, PolicyROC)
	dgl := IterationTime(c, gs, nn.GCN, dims, PolicyDGL)
	dgcl := IterationTime(c, gs, nn.GCN, dims, PolicyDGCL)
	if !(wise < roc && roc < dgl) {
		t.Fatalf("ordering wrong: wise=%v roc=%v dgl=%v", wise, roc, dgl)
	}
	if wise*1.5 > dgl {
		t.Fatalf("WiseGraph speedup over DGL only %.2f×, want ≥ 1.5×", dgl/wise)
	}
	if dgcl <= roc {
		t.Fatalf("DGCL's coordination overhead should cost it vs ROC: %v vs %v", dgcl, roc)
	}
}
