package nn

import (
	"math"
	"testing"

	"wisegraph/internal/graph"
	"wisegraph/internal/graph/gen"
	"wisegraph/internal/tensor"
)

// testGraph returns a small typed graph with skew and isolated vertices.
func testGraph() *graph.Graph {
	return &graph.Graph{
		NumVertices: 7,
		NumTypes:    3,
		Src:         []int32{0, 1, 2, 2, 3, 4, 4, 4, 0, 6},
		Dst:         []int32{1, 2, 1, 3, 4, 0, 1, 5, 5, 0},
		Type:        []int32{0, 1, 2, 0, 1, 2, 0, 1, 2, 0},
	}
}

func testInput(v, f int, seed uint64) *tensor.Tensor {
	x := tensor.New(v, f)
	tensor.Uniform(x, tensor.NewRNG(seed), -1, 1)
	return x
}

func TestGraphCtxConsistency(t *testing.T) {
	g := testGraph()
	gc := NewGraphCtx(g)
	if gc.NumEdges() != g.NumEdges() || gc.NumVertices() != g.NumVertices {
		t.Fatal("sizes wrong")
	}
	// every CSR slot: DstByDst matches the row it sits in, InvDeg = 1/deg
	for v := 0; v < g.NumVertices; v++ {
		lo, hi := gc.CSR.RowPtr[v], gc.CSR.RowPtr[v+1]
		for s := lo; s < hi; s++ {
			if gc.DstByDst[s] != int32(v) {
				t.Fatalf("slot %d dst %d, want %d", s, gc.DstByDst[s], v)
			}
			want := 1 / float32(hi-lo)
			if gc.InvDeg[s] != want {
				t.Fatalf("slot %d invdeg %v, want %v", s, gc.InvDeg[s], want)
			}
		}
	}
	// type grouping covers all slots with matching types
	total := 0
	for ty := 0; ty < g.NumTypes; ty++ {
		for _, s := range gc.TypeOrder[gc.TypeOffsets[ty]:gc.TypeOffsets[ty+1]] {
			if gc.CSR.EType[s] != int32(ty) {
				t.Fatalf("type grouping wrong at slot %d", s)
			}
			total++
		}
	}
	if total != g.NumEdges() {
		t.Fatalf("type groups cover %d of %d edges", total, g.NumEdges())
	}
}

func TestEdgeSpMMMatchesNaive(t *testing.T) {
	g := testGraph()
	gc := NewGraphCtx(g)
	x := testInput(7, 5, 1)
	out := tensor.New(7, 5)
	EdgeSpMM(out, x, gc.CSR.RowPtr, gc.SrcByDst, gc.InvDeg)
	want := tensor.New(7, 5)
	for s := range gc.SrcByDst {
		xr := x.Row(int(gc.SrcByDst[s]))
		wr := want.Row(int(gc.DstByDst[s]))
		for j, v := range xr {
			wr[j] += gc.InvDeg[s] * v
		}
	}
	for i := range out.Data() {
		if math.Abs(float64(out.Data()[i]-want.Data()[i])) > 1e-5 {
			t.Fatalf("EdgeSpMM mismatch at %d", i)
		}
	}
}

// gradCheck verifies analytic parameter and input gradients against
// central differences for the full model loss.
func gradCheck(t *testing.T, kind ModelKind, tol float64) {
	t.Helper()
	g := testGraph()
	gc := NewGraphCtx(g)
	cfg := Config{Kind: kind, InDim: 4, Hidden: 6, OutDim: 3, Layers: 2, Heads: 2, NumTypes: 3, Seed: 11}
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Perturb every parameter (including zero-initialized biases) so no
	// pre-activation sits exactly on the ReLU kink: isolated vertices
	// otherwise have out = bias = 0 exactly, where the numeric derivative
	// and the subgradient legitimately disagree.
	prng := tensor.NewRNG(99)
	for _, p := range m.Params() {
		for i := range p.Value.Data() {
			p.Value.Data()[i] += 0.05 * (prng.Float32() - 0.5)
		}
	}
	x := testInput(7, 4, 2)
	labels := []int32{0, 1, 2, 0, 1, 2, 0}
	mask := []int32{0, 2, 3, 5, 6}

	lossAt := func() float64 {
		logits := m.Forward(gc, x)
		return m.Loss(logits, labels, mask, nil)
	}

	// analytic gradients
	for _, p := range m.Params() {
		p.ZeroGrad()
	}
	logits := m.Forward(gc, x)
	grad := tensor.New(logits.Shape()...)
	m.Loss(logits, labels, mask, grad)
	m.Backward(gc, grad)

	const eps = 2e-3
	checked := 0
	for _, p := range m.Params() {
		// probe a few positions per parameter
		probes := []int{0, p.Value.Len() / 2, p.Value.Len() - 1}
		for _, i := range probes {
			orig := p.Value.Data()[i]
			p.Value.Data()[i] = orig + eps
			lp := lossAt()
			p.Value.Data()[i] = orig - eps
			lm := lossAt()
			p.Value.Data()[i] = orig
			num := (lp - lm) / (2 * eps)
			ana := float64(p.Grad.Data()[i])
			if math.Abs(num-ana) > tol*(1+math.Abs(num)) {
				t.Errorf("%s[%d]: analytic %.6f vs numeric %.6f", p.Name, i, ana, num)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no gradients checked")
	}
}

func TestGradCheckGCN(t *testing.T)      { gradCheck(t, GCN, 2e-2) }
func TestGradCheckSAGE(t *testing.T)     { gradCheck(t, SAGE, 2e-2) }
func TestGradCheckRGCN(t *testing.T)     { gradCheck(t, RGCN, 2e-2) }
func TestGradCheckGAT(t *testing.T)      { gradCheck(t, GAT, 3e-2) }
func TestGradCheckSAGELSTM(t *testing.T) { gradCheck(t, SAGELSTM, 3e-2) }

func TestModelForwardShapes(t *testing.T) {
	g := testGraph()
	gc := NewGraphCtx(g)
	for kind := ModelKind(0); kind < NumModels; kind++ {
		m, err := NewModel(Config{Kind: kind, InDim: 4, Hidden: 8, OutDim: 3, Layers: 3, Heads: 2, NumTypes: 3, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		out := m.Forward(gc, testInput(7, 4, 3))
		if out.Dim(0) != 7 || out.Dim(1) != 3 {
			t.Fatalf("%v: output shape %v", kind, out.Shape())
		}
		if !out.AllFinite() {
			t.Fatalf("%v: non-finite output", kind)
		}
	}
}

func TestTrainingReducesLossAllModels(t *testing.T) {
	res := gen.Generate(gen.Config{
		NumVertices: 120, NumEdges: 600, Kind: gen.PowerLaw, Skew: 0.8,
		NumTypes: 3, NumBlocks: 4, Homophily: 0.85, Seed: 5,
	})
	gc := NewGraphCtx(res.Graph)
	// class-separable features
	rng := tensor.NewRNG(6)
	x := tensor.New(120, 8)
	centers := tensor.New(4, 8)
	tensor.Uniform(centers, rng, -1, 1)
	for i := 0; i < 120; i++ {
		c := centers.Row(int(res.Block[i]))
		row := x.Row(i)
		for j := range row {
			row[j] = c[j] + 0.6*float32(rng.NormFloat64())
		}
	}
	mask := make([]int32, 120)
	for i := range mask {
		mask[i] = int32(i)
	}
	for kind := ModelKind(0); kind < NumModels; kind++ {
		m, err := NewModel(Config{Kind: kind, InDim: 8, Hidden: 12, OutDim: 4, Layers: 2, Heads: 2, NumTypes: 3, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		opt := NewAdam(0.01, m.Params())
		first := m.TrainStep(gc, x, res.Block, mask, opt)
		var last float64
		for it := 0; it < 30; it++ {
			last = m.TrainStep(gc, x, res.Block, mask, opt)
		}
		if last > first*0.8 {
			t.Fatalf("%v: loss did not drop (%.4f → %.4f)", kind, first, last)
		}
		acc := m.Accuracy(gc, x, res.Block, mask)
		if acc < 0.5 {
			t.Fatalf("%v: train accuracy %.3f after 30 steps", kind, acc)
		}
	}
}

func TestAdamStepChangesParams(t *testing.T) {
	rng := tensor.NewRNG(1)
	p := NewParam("w", rng, 3, 3)
	before := p.Value.Clone()
	for i := range p.Grad.Data() {
		p.Grad.Data()[i] = 1
	}
	opt := NewAdam(0.1, []*Param{p})
	opt.Step()
	diff := 0.0
	for i := range p.Value.Data() {
		diff += math.Abs(float64(p.Value.Data()[i] - before.Data()[i]))
	}
	if diff == 0 {
		t.Fatal("Adam did not update parameters")
	}
	opt.ZeroGrads()
	for _, v := range p.Grad.Data() {
		if v != 0 {
			t.Fatal("ZeroGrads failed")
		}
	}
}

func TestModelKindHelpers(t *testing.T) {
	if !RGCN.Complex() || !GAT.Complex() || !SAGELSTM.Complex() || GCN.Complex() || SAGE.Complex() {
		t.Fatal("Complex classification wrong")
	}
	k, err := ParseModel("SAGE-LSTM")
	if err != nil || k != SAGELSTM {
		t.Fatalf("ParseModel: %v %v", k, err)
	}
	if _, err := ParseModel("bogus"); err == nil {
		t.Fatal("expected error")
	}
	if len(RGCN.IndexAttrs()) != 3 || len(GCN.IndexAttrs()) != 2 {
		t.Fatal("IndexAttrs wrong")
	}
}

func TestLayerDFGsBuild(t *testing.T) {
	for kind := ModelKind(0); kind < NumModels; kind++ {
		g := LayerDFG(kind, 100, 3, 16, 8)
		if g.Output == nil {
			t.Fatalf("%v: no output", kind)
		}
		if len(g.Nodes) < 3 {
			t.Fatalf("%v: suspiciously small DFG", kind)
		}
	}
}

func TestNumParamsPositive(t *testing.T) {
	m, _ := NewModel(Config{Kind: GCN, InDim: 4, Hidden: 8, OutDim: 3, Layers: 3, Seed: 1})
	if m.NumParams() < 4*8+8*8+8*3 {
		t.Fatalf("NumParams = %d", m.NumParams())
	}
}

// TestAccumBiasGradBitwise holds accumBiasGrad, one row-kernel add per
// row, to the scalar column-sum loop it replaced, with −0, ±Inf and NaN
// in the rows and −0 in the gradient it starts from. NaN matches NaN.
func TestAccumBiasGradBitwise(t *testing.T) {
	const rows, n = 11, 37
	rng := tensor.NewRNG(5)
	negZero := float32(math.Copysign(0, -1))
	specials := []float32{0, negZero, float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN())}
	d := tensor.New(rows, n)
	for i := range d.Data() {
		if rng.Intn(4) == 0 {
			d.Data()[i] = specials[rng.Intn(len(specials))]
		} else {
			d.Data()[i] = 2*rng.Float32() - 1
		}
	}
	g := tensor.New(n)
	for j := range g.Data() {
		if j%2 == 0 {
			g.Data()[j] = negZero
		}
	}
	want := append([]float32(nil), g.Data()...)
	for i := 0; i < rows; i++ {
		for j, v := range d.Row(i) {
			want[j] += v
		}
	}
	accumBiasGrad(g, d)
	for j, v := range g.Data() {
		if math.Float32bits(v) != math.Float32bits(want[j]) && !(v != v && want[j] != want[j]) {
			t.Fatalf("[%d] = %v (%#08x), scalar loop %v (%#08x)", j, v, math.Float32bits(v), want[j], math.Float32bits(want[j]))
		}
	}
}
