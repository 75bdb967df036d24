package dist

import (
	"math"
	"testing"

	"wisegraph/internal/graph/gen"
	"wisegraph/internal/nn"
	"wisegraph/internal/tensor"
)

func engineSetup(t *testing.T) (*Engine, *nn.GraphCtx, *tensor.Tensor) {
	t.Helper()
	res := gen.Generate(gen.Config{NumVertices: 240, NumEdges: 2000, Kind: gen.PowerLaw, Skew: 0.9, Seed: 4})
	g := res.Graph
	e := NewEngine(NewCluster(4), g)
	x := tensor.New(240, 10)
	tensor.Uniform(x, tensor.NewRNG(5), -1, 1)
	return e, nn.NewGraphCtx(g), x
}

func closeAll(t *testing.T, got, want *tensor.Tensor, tol float64, what string) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: length %d vs %d", what, got.Len(), want.Len())
	}
	for i := range got.Data() {
		if math.Abs(float64(got.Data()[i]-want.Data()[i])) > tol {
			t.Fatalf("%s differs at %d: %v vs %v", what, i, got.Data()[i], want.Data()[i])
		}
	}
}

func TestShardUnshardRoundTrip(t *testing.T) {
	e, _, x := engineSetup(t)
	parts := e.Shard(x)
	if len(parts) != 4 {
		t.Fatalf("%d shards", len(parts))
	}
	back := e.Unshard(parts)
	closeAll(t, back, x, 0, "roundtrip")
	// shards are independent copies
	parts[0].Data()[0] += 1
	if back.Data()[0] == parts[0].Data()[0] {
		t.Fatal("shards must not alias the unsharded tensor")
	}
}

func TestGCNForwardMatchesReferenceBothStrategies(t *testing.T) {
	e, gc, x := engineSetup(t)
	rng := tensor.NewRNG(6)
	layer := nn.NewGCNLayer(rng, 10, 6)
	want := layer.Forward(gc, x)
	for _, strat := range []Strategy{DPPre, DPPost} {
		e.ResetComm()
		parts, err := e.GCNForward(layer, e.Shard(x), strat)
		if err != nil {
			t.Fatal(err)
		}
		got := e.Unshard(parts)
		closeAll(t, got, want, 1e-4, strat.String())
		if e.CommBytes() <= 0 {
			t.Fatalf("%v: no communication accounted", strat)
		}
	}
}

func TestGCNForwardVolumeMatchesPlacementModel(t *testing.T) {
	// The engine's measured exchange volume must equal what PlaceLayer
	// prices: uniqRemoteSrc × width × 4 bytes.
	e, _, x := engineSetup(t)
	gs := Analyze(e.G, 4)
	rng := tensor.NewRNG(6)
	layer := nn.NewGCNLayer(rng, 10, 6)

	e.ResetComm()
	if _, err := e.GCNForward(layer, e.Shard(x), DPPre); err != nil {
		t.Fatal(err)
	}
	wantPre := float64(gs.UniqRemoteSrc) * 10 * 4
	if math.Abs(e.CommBytes()-wantPre) > 1 {
		t.Fatalf("DP-pre volume %v, model %v", e.CommBytes(), wantPre)
	}

	e.ResetComm()
	if _, err := e.GCNForward(layer, e.Shard(x), DPPost); err != nil {
		t.Fatal(err)
	}
	wantPost := float64(gs.UniqRemoteSrc) * 6 * 4
	if math.Abs(e.CommBytes()-wantPost) > 1 {
		t.Fatalf("DP-post volume %v, model %v", e.CommBytes(), wantPost)
	}
	if wantPost >= wantPre {
		t.Fatal("shrinking layer must ship less after the transform")
	}
}

func TestSAGEForwardMatchesReference(t *testing.T) {
	e, gc, x := engineSetup(t)
	rng := tensor.NewRNG(7)
	layer := nn.NewSAGELayer(rng, 10, 5)
	want := layer.Forward(gc, x)
	parts, err := e.SAGEForward(layer, e.Shard(x))
	if err != nil {
		t.Fatal(err)
	}
	got := e.Unshard(parts)
	closeAll(t, got, want, 1e-4, "sage")
}

func TestGCNBackwardMatchesReference(t *testing.T) {
	e, gc, x := engineSetup(t)
	rng := tensor.NewRNG(8)
	ref := nn.NewGCNLayer(rng, 10, 6)
	dup := nn.NewGCNLayer(tensor.NewRNG(99), 10, 6)
	dup.W.Value.CopyFrom(ref.W.Value)
	dup.B.Value.CopyFrom(ref.B.Value)

	// reference forward+backward
	_ = ref.Forward(gc, x)
	dOut := tensor.New(240, 6)
	tensor.Uniform(dOut, tensor.NewRNG(9), -1, 1)
	wantDX := ref.Backward(gc, dOut, true)

	// distributed forward+backward
	xParts := e.Shard(x)
	if _, err := e.GCNForward(dup, xParts, DPPost); err != nil {
		t.Fatal(err)
	}
	gotDX := e.Unshard(e.GCNBackward(dup, xParts, e.Shard(dOut)))

	closeAll(t, gotDX, wantDX, 1e-3, "dX")
	closeAll(t, dup.W.Grad, ref.W.Grad, 1e-2, "dW")
	closeAll(t, dup.B.Grad, ref.B.Grad, 1e-2, "dB")
}

func TestEngineOwnerAndBlocks(t *testing.T) {
	e, _, _ := engineSetup(t)
	// every vertex is owned by exactly the block containing it
	for d := 0; d < 4; d++ {
		lo, hi := e.Block(d)
		for v := lo; v < hi; v++ {
			if e.Owner(v) != d {
				t.Fatalf("vertex %d: owner %d, block %d", v, e.Owner(v), d)
			}
		}
	}
	// blocks cover all vertices
	if e.blockStart[0] != 0 || int(e.blockStart[4]) != e.G.NumVertices {
		t.Fatalf("blocks %v", e.blockStart)
	}
}

func TestGCNForwardTPMatchesReference(t *testing.T) {
	e, gc, x := engineSetup(t)
	rng := tensor.NewRNG(10)
	layer := nn.NewGCNLayer(rng, 12, 8) // f divisible by N=4
	x12 := tensor.New(240, 12)
	tensor.Uniform(x12, tensor.NewRNG(11), -1, 1)
	want := layer.Forward(gc, x12)
	e.ResetComm()
	got := e.Unshard(e.GCNForwardTP(layer, e.ShardColumns(x12)))
	closeAll(t, got, want, 1e-4, "tensor-parallel")
	// reduce-scatter traffic: (N-1) × V × fp × 4 bytes
	wantVol := 3.0 * 240 * 8 * 4
	if math.Abs(e.CommBytes()-wantVol) > 1 {
		t.Fatalf("TP volume %v, want %v", e.CommBytes(), wantVol)
	}
	_ = x
}

func TestShardColumnsRoundTrip(t *testing.T) {
	e, _, _ := engineSetup(t)
	x := tensor.New(240, 12)
	tensor.Uniform(x, tensor.NewRNG(12), -1, 1)
	parts := e.ShardColumns(x)
	total := 0
	for _, p := range parts {
		if p.Rows() != 240 {
			t.Fatalf("column shard must keep all rows, got %d", p.Rows())
		}
		total += p.RowSize()
	}
	if total != 12 {
		t.Fatalf("column shards cover %d of 12 columns", total)
	}
	// spot-check values
	if parts[0].At(5, 0) != x.At(5, 0) {
		t.Fatal("shard 0 column 0 mismatch")
	}
}

func TestDistributedTrainingMatchesSingleDevice(t *testing.T) {
	res := gen.Generate(gen.Config{
		NumVertices: 200, NumEdges: 1600, Kind: gen.PowerLaw, Skew: 0.9,
		NumBlocks: 4, Homophily: 0.85, Seed: 14,
	})
	g := res.Graph
	labels := res.Block
	x := tensor.New(200, 8)
	tensor.Uniform(x, tensor.NewRNG(15), -1, 1)
	mask := make([]int32, 0, 120)
	for v := int32(0); v < 200; v += 2 {
		mask = append(mask, v)
	}

	mkModel := func() *nn.Model {
		m, err := nn.NewModel(nn.Config{Kind: nn.GCN, InDim: 8, Hidden: 12, OutDim: 4, Layers: 2, Seed: 16})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	// single-device reference
	ref := mkModel()
	gc := nn.NewGraphCtx(g)
	refOpt := nn.NewAdam(0.01, ref.Params())
	// distributed
	e := NewEngine(NewCluster(4), g)
	dm := mkModel()
	tr, err := NewTrainer(e, dm, x, labels, mask, 0.01)
	if err != nil {
		t.Fatal(err)
	}

	for step := 0; step < 5; step++ {
		refLoss := ref.TrainStep(gc, x, labels, mask, refOpt)
		distLoss, err := tr.Step()
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(refLoss-distLoss) > 1e-3*(1+math.Abs(refLoss)) {
			t.Fatalf("step %d: loss diverged: ref %.6f vs dist %.6f", step, refLoss, distLoss)
		}
	}
	// parameters must track closely after 5 updates
	refP := ref.Params()
	dstP := dm.Params()
	for i := range refP {
		for j := range refP[i].Value.Data() {
			d := math.Abs(float64(refP[i].Value.Data()[j] - dstP[i].Value.Data()[j]))
			if d > 5e-3 {
				t.Fatalf("param %s[%d] diverged by %v", refP[i].Name, j, d)
			}
		}
	}
	// and accuracies agree
	refAcc := ref.Accuracy(gc, x, labels, mask)
	distAcc, err := tr.Accuracy(mask)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(refAcc-distAcc) > 0.02 {
		t.Fatalf("accuracy diverged: %.3f vs %.3f", refAcc, distAcc)
	}
}

func TestTrainerRejectsNonGCN(t *testing.T) {
	res := gen.Generate(gen.Config{NumVertices: 50, NumEdges: 200, Kind: gen.Uniform, Seed: 17})
	e := NewEngine(NewCluster(2), res.Graph)
	m, _ := nn.NewModel(nn.Config{Kind: nn.GAT, InDim: 8, Hidden: 8, OutDim: 4, Layers: 2, Heads: 2, Seed: 18})
	x := tensor.New(50, 8)
	if _, err := NewTrainer(e, m, x, make([]int32, 50), nil, 0.01); err == nil {
		t.Fatal("expected unsupported-layer error")
	}
}

func TestSAGEBackwardMatchesReference(t *testing.T) {
	e, gc, x := engineSetup(t)
	rng := tensor.NewRNG(20)
	ref := nn.NewSAGELayer(rng, 10, 6)
	dup := nn.NewSAGELayer(tensor.NewRNG(21), 10, 6)
	dup.WSelf.Value.CopyFrom(ref.WSelf.Value)
	dup.WNeigh.Value.CopyFrom(ref.WNeigh.Value)
	dup.B.Value.CopyFrom(ref.B.Value)

	_ = ref.Forward(gc, x)
	dOut := tensor.New(240, 6)
	tensor.Uniform(dOut, tensor.NewRNG(22), -1, 1)
	wantDX := ref.Backward(gc, dOut, true)

	xParts := e.Shard(x)
	if _, err := e.SAGEForward(dup, xParts); err != nil {
		t.Fatal(err)
	}
	dxParts, err := e.SAGEBackward(dup, xParts, e.Shard(dOut))
	if err != nil {
		t.Fatal(err)
	}
	gotDX := e.Unshard(dxParts)
	closeAll(t, gotDX, wantDX, 1e-3, "sage dX")
	closeAll(t, dup.WSelf.Grad, ref.WSelf.Grad, 1e-2, "sage dWself")
	closeAll(t, dup.WNeigh.Grad, ref.WNeigh.Grad, 1e-2, "sage dWneigh")
	closeAll(t, dup.B.Grad, ref.B.Grad, 1e-2, "sage dB")
}

func TestDistributedSAGETrainingMatchesSingleDevice(t *testing.T) {
	res := gen.Generate(gen.Config{
		NumVertices: 160, NumEdges: 1200, Kind: gen.PowerLaw, Skew: 0.9,
		NumBlocks: 4, Homophily: 0.85, Seed: 25,
	})
	g := res.Graph
	x := tensor.New(160, 6)
	tensor.Uniform(x, tensor.NewRNG(26), -1, 1)
	mask := make([]int32, 0, 80)
	for v := int32(0); v < 160; v += 2 {
		mask = append(mask, v)
	}
	mk := func() *nn.Model {
		m, _ := nn.NewModel(nn.Config{Kind: nn.SAGE, InDim: 6, Hidden: 10, OutDim: 4, Layers: 2, Seed: 27})
		return m
	}
	ref := mk()
	gc := nn.NewGraphCtx(g)
	refOpt := nn.NewAdam(0.01, ref.Params())
	e := NewEngine(NewCluster(4), g)
	tr, err := NewTrainer(e, mk(), x, res.Block, mask, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 4; step++ {
		refLoss := ref.TrainStep(gc, x, res.Block, mask, refOpt)
		distLoss, err := tr.Step()
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(refLoss-distLoss) > 1e-3*(1+math.Abs(refLoss)) {
			t.Fatalf("step %d: %.6f vs %.6f", step, refLoss, distLoss)
		}
	}
}
