package dist

import (
	"fmt"
	"math"
	"strings"
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

// replicate builds one layer per device; mk must draw the same weights on
// every call.
func replicate(n int, mk func() nn.Layer) []nn.Layer {
	out := make([]nn.Layer, n)
	for d := range out {
		out[d] = mk()
	}
	return out
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

// bitsEqual holds got to want bit for bit.
func bitsEqual(t *testing.T, got, want *tensor.Tensor, what string) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: length %d vs %d", what, got.Len(), want.Len())
	}
	for i, v := range got.Data() {
		if math.Float32bits(v) != math.Float32bits(want.Data()[i]) {
			t.Fatalf("%s differs at %d: %v vs %v", what, i, v, want.Data()[i])
		}
	}
}

// layerBackwardMatches runs one layer's forward and backward on 4 device
// replicas and holds the unsharded dX and the replicas' summed parameter
// gradients to the single-device layer.
func layerBackwardMatches(t *testing.T, mk func() nn.Layer, strat Strategy, dOutSeed uint64, what string) {
	t.Helper()
	e, gc, x := engineSetup(t)
	ref := mk()
	ref.Forward(gc, x)
	dOut := tensor.New(240, ref.OutDim())
	tensor.Uniform(dOut, tensor.NewRNG(dOutSeed), -1, 1)
	wantDX := ref.Backward(gc, dOut, true)

	replicas := replicate(4, mk)
	if _, err := e.Forward(replicas, e.Shard(x), strat); err != nil {
		t.Fatal(err)
	}
	dxParts, err := e.Backward(replicas, e.Shard(dOut), strat, true)
	if err != nil {
		t.Fatal(err)
	}
	closeAll(t, e.Unshard(dxParts), wantDX, 1e-3, what+" dX")
	for i, p := range ref.Params() {
		sum := tensor.New(p.Grad.Shape()...)
		for _, r := range replicas {
			tensor.AXPY(sum, 1, r.Params()[i].Grad)
		}
		closeAll(t, sum, p.Grad, 1e-2, what+" d"+p.Name)
	}
}

func TestGCNForwardMatchesReferenceBothStrategies(t *testing.T) {
	e, gc, x := engineSetup(t)
	mk := func() nn.Layer { return nn.NewGCNLayer(tensor.NewRNG(6), 10, 6) }
	want := mk().Forward(gc, x)
	for _, strat := range []Strategy{DPPre, DPPost} {
		e.ResetComm()
		parts, err := e.Forward(replicate(4, mk), e.Shard(x), strat)
		if err != nil {
			t.Fatal(err)
		}
		bitsEqual(t, e.Unshard(parts), want, strat.String())
		if e.CommBytes() <= 0 {
			t.Fatalf("%v: no communication accounted", strat)
		}
	}
}

func TestSAGEForwardMatchesReference(t *testing.T) {
	e, gc, x := engineSetup(t)
	mk := func() nn.Layer { return nn.NewSAGELayer(tensor.NewRNG(7), 10, 5) }
	want := mk().Forward(gc, x)
	parts, err := e.Forward(replicate(4, mk), e.Shard(x), DPPre)
	if err != nil {
		t.Fatal(err)
	}
	bitsEqual(t, e.Unshard(parts), want, "sage")
}

func TestGCNBackwardMatchesReference(t *testing.T) {
	mk := func() nn.Layer { return nn.NewGCNLayer(tensor.NewRNG(8), 10, 6) }
	for _, strat := range []Strategy{DPPre, DPPost} {
		layerBackwardMatches(t, mk, strat, 9, "gcn "+strat.String())
	}
}

func TestSAGEBackwardMatchesReference(t *testing.T) {
	mk := func() nn.Layer { return nn.NewSAGELayer(tensor.NewRNG(20), 10, 6) }
	layerBackwardMatches(t, mk, DPPre, 22, "sage")
}

func TestGCNForwardVolumeMatchesPlacementModel(t *testing.T) {
	// The engine's measured exchange volume must equal what PlaceLayer
	// prices: uniqRemoteSrc × width × 4 bytes.
	e, _, x := engineSetup(t)
	gs := Analyze(e.G, 4)
	replicas := replicate(4, func() nn.Layer { return nn.NewGCNLayer(tensor.NewRNG(6), 10, 6) })

	e.ResetComm()
	if _, err := e.Forward(replicas, e.Shard(x), DPPre); err != nil {
		t.Fatal(err)
	}
	wantPre := float64(gs.UniqRemoteSrc) * 10 * 4
	if math.Abs(e.CommBytes()-wantPre) > 1 {
		t.Fatalf("DP-pre volume %v, model %v", e.CommBytes(), wantPre)
	}

	e.ResetComm()
	if _, err := e.Forward(replicas, e.Shard(x), DPPost); err != nil {
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
	e, gc, _ := engineSetup(t)
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

// trainingMatchesSingleDevice trains one model kind for 5 steps on one
// device (TrainStep) and on n devices (Trainer) from the same weights, and
// holds losses, parameters and accuracy to tolerance: the forward is the
// same bits, the reductions sum in a different order.
func trainingMatchesSingleDevice(t *testing.T, kind nn.ModelKind, n int) {
	t.Helper()
	res := gen.Generate(gen.Config{
		NumVertices: 200, NumEdges: 1600, Kind: gen.PowerLaw, Skew: 0.9,
		NumBlocks: 4, Homophily: 0.85, NumTypes: 3, Seed: 14,
	})
	g := res.Graph
	labels := res.Block
	x := tensor.New(200, 8)
	tensor.Uniform(x, tensor.NewRNG(15), -1, 1)
	mask := make([]int32, 0, 100)
	for v := int32(0); v < 200; v += 2 {
		mask = append(mask, v)
	}
	mkModel := func() *nn.Model {
		m, err := nn.NewModel(nn.Config{Kind: kind, InDim: 8, Hidden: 12, OutDim: 4, Layers: 2, Heads: 2, NumTypes: 3, Seed: 16})
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
	dm := mkModel()
	tr, err := NewTrainer(NewEngine(NewCluster(n), g), dm, x, labels, mask, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	what := fmt.Sprintf("%v @%d", kind, n)
	for step := 0; step < 5; step++ {
		refLoss := ref.TrainStep(gc, x, labels, mask, refOpt)
		distLoss, err := tr.Step()
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(refLoss-distLoss) > 1e-3*(1+math.Abs(refLoss)) {
			t.Fatalf("%s step %d: loss diverged: ref %.6f vs dist %.6f", what, step, refLoss, distLoss)
		}
	}
	// parameters must track closely after 5 updates
	refP := ref.Params()
	dstP := dm.Params()
	for i := range refP {
		for j := range refP[i].Value.Data() {
			d := math.Abs(float64(refP[i].Value.Data()[j] - dstP[i].Value.Data()[j]))
			if d > 5e-3 {
				t.Fatalf("%s: param %s[%d] diverged by %v", what, refP[i].Name, j, d)
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
		t.Fatalf("%s: accuracy diverged: %.3f vs %.3f", what, refAcc, distAcc)
	}
}

func TestDistributedTrainingMatchesSingleDevice(t *testing.T) {
	for _, kind := range []nn.ModelKind{nn.GCN, nn.GAT, nn.RGCN} {
		for _, n := range []int{2, 4} {
			trainingMatchesSingleDevice(t, kind, n)
		}
	}
}

func TestDistributedSAGETrainingMatchesSingleDevice(t *testing.T) {
	for _, kind := range []nn.ModelKind{nn.SAGE, nn.SAGELSTM} {
		for _, n := range []int{2, 4} {
			trainingMatchesSingleDevice(t, kind, n)
		}
	}
}

func TestTrainerRejectsDropout(t *testing.T) {
	res := gen.Generate(gen.Config{NumVertices: 50, NumEdges: 200, Kind: gen.Uniform, Seed: 17})
	e := NewEngine(NewCluster(2), res.Graph)
	m, err := nn.NewModel(nn.Config{Kind: nn.GCN, InDim: 8, Hidden: 8, OutDim: 4, Layers: 2, Dropout: 0.5, Seed: 18})
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(50, 8)
	_, err = NewTrainer(e, m, x, make([]int32, 50), nil, 0.01)
	if err == nil || !strings.Contains(err.Error(), "dropout") {
		t.Fatalf("want a dropout rejection, got %v", err)
	}
}

// TestPlacementsReportExecutedVolume holds Trainer.Placements to what runs:
// for every model, each layer's measured forward exchange equals the
// volume PlaceLayer prices for the strategy reported for that layer.
func TestPlacementsReportExecutedVolume(t *testing.T) {
	res := gen.Generate(gen.Config{NumVertices: 240, NumEdges: 2000, Kind: gen.PowerLaw, Skew: 0.9, NumTypes: 3, Seed: 4})
	g := res.Graph
	x := tensor.New(240, 10)
	tensor.Uniform(x, tensor.NewRNG(5), -1, 1)
	gs := Analyze(g, 4)
	for kind := nn.ModelKind(0); kind < nn.NumModels; kind++ {
		m, err := nn.NewModel(nn.Config{Kind: kind, InDim: 10, Hidden: 6, OutDim: 4, Layers: 2, Heads: 2, NumTypes: 3, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		e := NewEngine(NewCluster(4), g)
		tr, err := NewTrainer(e, m, x, make([]int32, 240), nil, 0.01)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		cur := tr.xParts
		for li, l := range m.Layers() {
			e.ResetComm()
			out, err := e.Forward(tr.layers[li], cur, tr.Placements[li])
			if err != nil {
				t.Fatalf("%v layer %d: %v", kind, li, err)
			}
			want := PlaceLayer(e.C, gs, kind, l.InDim(), l.OutDim(), tr.Placements[li], true, true).CommBytes
			if math.Abs(e.CommBytes()-want) > 1 {
				t.Fatalf("%v layer %d (%d → %d) reports %v: measured %v bytes, model %v",
					kind, li, l.InDim(), l.OutDim(), tr.Placements[li], e.CommBytes(), want)
			}
			cur = make([]*tensor.Tensor, len(out))
			for d, o := range out {
				cur[d] = tensor.ReLU(nil, o)
			}
		}
	}
}
