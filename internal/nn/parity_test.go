package nn

import (
	"math"
	"runtime"
	"testing"

	"wisegraph/internal/graph"
	"wisegraph/internal/graph/gen"
	"wisegraph/internal/tensor"
)

// Parity tests for the pooled/binned execution paths: sticky buffers,
// cached bins and the persistent worker pool must not change a single bit
// of the training computation relative to the sequential reference.

func parityWorkers(t *testing.T, n int, fn func()) {
	t.Helper()
	old := runtime.GOMAXPROCS(n)
	defer runtime.GOMAXPROCS(old)
	fn()
}

// powerLawGraphCtx builds a hub-skewed test graph shaped like the
// benchmark workload (many edges landing on few destinations), with
// types edge types (0 = untyped; RGCN needs them, the others ignore them).
func powerLawGraphCtx(v, e, types int, seed uint64) (*GraphCtx, *gen.Result) {
	res := gen.Generate(gen.Config{
		NumVertices: v, NumEdges: e,
		Kind: gen.PowerLaw, Skew: 1.0, NumTypes: types,
		NumBlocks: 5, Homophily: 0.8, Seed: seed,
	})
	return NewGraphCtx(res.Graph), res
}

// TestEdgeSpMMBitwise holds EdgeSpMM to the per-edge walk it replaced —
// one scalar multiply-then-add per edge and column, CSR slots ascending —
// at 1, 2 and 4 workers: the forward aggregation over CSR.RowPtr, its
// transpose over the per-source grouping (BySrc), and a destination-row
// subset in a shuffled edge order. Every sum starts from nonzero values,
// as the backward's does from the self-path's dx.
func TestEdgeSpMMBitwise(t *testing.T) {
	const rs = 19
	gc, res := powerLawGraphCtx(300, 4000, 0, 7)
	g := res.Graph
	rng := tensor.NewRNG(71)
	// The row subset: the vertices not divisible by 3, over the edges that
	// end in them, in a shuffled order.
	sg := &graph.Graph{NumVertices: g.NumVertices, NumTypes: 1}
	for e, d := range g.Dst {
		if d%3 != 0 {
			sg.Src, sg.Dst = append(sg.Src, g.Src[e]), append(sg.Dst, d)
		}
	}
	var rows []int32
	for v := int32(0); v < int32(g.NumVertices); v++ {
		if v%3 != 0 {
			rows = append(rows, v)
		}
	}
	order := make([]int32, sg.NumEdges())
	for i := range order {
		order[i] = int32(i)
	}
	for i := len(order) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		order[i], order[j] = order[j], order[i]
	}
	sub, err := NewGraphCtxOrder(sg, order, rows)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Release()

	// walk is the per-edge reference: out[to[s]] += w[s]·x[from[s]], s
	// ascending.
	walk := func(out, x *tensor.Tensor, from, to []int32, w []float32) {
		for s := range from {
			or, xr := out.Row(int(to[s])), x.Row(int(from[s]))
			for j, v := range xr {
				or[j] += float32(w[s] * v)
			}
		}
	}
	ptr, dst, w := gc.BySrc()
	cases := []struct {
		name     string
		outRows  int
		inRows   int
		run      func(out, x *tensor.Tensor)
		from, to []int32
		w        []float32
	}{
		{"forward", gc.NumRows(), gc.NumVertices(), func(out, x *tensor.Tensor) {
			EdgeSpMM(out, x, gc.CSR.RowPtr, gc.SrcByDst, gc.InvDeg)
		}, gc.SrcByDst, gc.DstByDst, gc.InvDeg},
		{"transpose", gc.NumVertices(), gc.NumRows(), func(out, x *tensor.Tensor) {
			EdgeSpMM(out, x, ptr, dst, w)
		}, gc.DstByDst, gc.SrcByDst, gc.InvDeg},
		{"rows", sub.NumRows(), sub.NumVertices(), func(out, x *tensor.Tensor) {
			EdgeSpMM(out, x, sub.CSR.RowPtr, sub.SrcByDst, sub.InvDeg)
		}, sub.SrcByDst, sub.DstByDst, sub.InvDeg},
	}
	for _, c := range cases {
		x := tensor.Uniform(tensor.New(c.inRows, rs), rng, -1, 1)
		init := tensor.Uniform(tensor.New(c.outRows, rs), rng, -1, 1)
		want := init.Clone()
		walk(want, x, c.from, c.to, c.w)
		for _, workers := range []int{1, 2, 4} {
			parityWorkers(t, workers, func() {
				got := init.Clone()
				c.run(got, x)
				for i, v := range got.Data() {
					if math.Float32bits(v) != math.Float32bits(want.Data()[i]) {
						t.Fatalf("%s, %d workers: [%d] = %v, per-edge walk %v", c.name, workers, i, v, want.Data()[i])
					}
				}
			})
		}
	}
}

// TestTrainStepBitwiseAcrossWorkerCounts trains each of the five models
// twice on a typed graph — once sequentially, once with the worker pool,
// binned scatter and blocked matmul active — and requires bit-identical
// losses and logits (forward + backward + Adam, dropout on). Buffer reuse
// across the three iterations is exercised in both runs.
func TestTrainStepBitwiseAcrossWorkerCounts(t *testing.T) {
	gc, res := powerLawGraphCtx(400, 6000, 3, 9)
	rng := tensor.NewRNG(72)
	x := tensor.Uniform(tensor.New(gc.NumVertices(), 23), rng, -1, 1)
	labels := make([]int32, gc.NumVertices())
	copy(labels, res.Block)
	mask := make([]int32, gc.NumVertices())
	for i := range mask {
		mask[i] = int32(i)
	}

	run := func(workers int, kind ModelKind) ([]float64, *tensor.Tensor) {
		var losses []float64
		var logits *tensor.Tensor
		parityWorkers(t, workers, func() {
			m, err := NewModel(Config{
				Kind: kind, InDim: 23, Hidden: 48, OutDim: 5, Layers: 3,
				Heads: 2, NumTypes: 3, Dropout: 0.3, Seed: 13,
			})
			if err != nil {
				t.Fatal(err)
			}
			opt := NewAdam(1e-2, m.Params())
			for it := 0; it < 3; it++ {
				losses = append(losses, m.TrainStep(gc, x, labels, mask, opt))
			}
			out := m.Forward(gc, x)
			logits = tensor.New(out.Shape()...)
			logits.CopyFrom(out)
		})
		return losses, logits
	}

	for kind := ModelKind(0); kind < NumModels; kind++ {
		seqLoss, seqLogits := run(1, kind)
		parLoss, parLogits := run(8, kind)
		for i := range seqLoss {
			if seqLoss[i] != parLoss[i] {
				t.Fatalf("%v iter %d: loss %v (seq) vs %v (parallel)", kind, i, seqLoss[i], parLoss[i])
			}
		}
		for i, v := range parLogits.Data() {
			if v != seqLogits.Data()[i] {
				t.Fatalf("%v: logit[%d] %v (seq) vs %v (parallel)", kind, i, seqLogits.Data()[i], v)
			}
		}
		if math.IsNaN(seqLoss[len(seqLoss)-1]) {
			t.Fatalf("%v: training diverged", kind)
		}
	}
}

// TestForwardStableUnderBufferReuse runs the same forward pass repeatedly
// on one model instance: with sticky buffers, any missing Zero() or stale
// aliasing would change the result between calls.
func TestForwardStableUnderBufferReuse(t *testing.T) {
	gc, _ := powerLawGraphCtx(200, 2500, 0, 11)
	rng := tensor.NewRNG(73)
	x := tensor.Uniform(tensor.New(gc.NumVertices(), 16), rng, -1, 1)
	resT := gen.Generate(gen.Config{
		NumVertices: 200, NumEdges: 2500,
		Kind: gen.PowerLaw, Skew: 1.0, NumTypes: 3, Seed: 11,
	})
	gcTyped := NewGraphCtx(resT.Graph)
	for _, kind := range []ModelKind{GCN, SAGE, GAT, SAGELSTM, RGCN} {
		gc := gc
		if kind == RGCN {
			gc = gcTyped
		}
		m, err := NewModel(Config{
			Kind: kind, InDim: 16, Hidden: 32, OutDim: 4, Layers: 2, Seed: 3,
			NumTypes: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		parityWorkers(t, 4, func() {
			first := tensor.New(gc.NumVertices(), 4)
			first.CopyFrom(m.Forward(gc, x))
			for rep := 0; rep < 3; rep++ {
				out := m.Forward(gc, x)
				for i, v := range out.Data() {
					if v != first.Data()[i] {
						t.Fatalf("%v: forward drifted at rep %d, elem %d: %v vs %v",
							kind, rep, i, v, first.Data()[i])
					}
				}
			}
		})
	}
}

// inputGradBufs lists the sticky buffers a layer fills only to return
// d(loss)/d(x).
func inputGradBufs(l Layer) []*tensor.Tensor {
	switch l := l.(type) {
	case *GCNLayer:
		return []*tensor.Tensor{l.dX}
	case *SAGELayer:
		return []*tensor.Tensor{l.dx, l.dAgg}
	case *GATLayer:
		return []*tensor.Tensor{l.dX}
	case *RGCNLayer:
		return []*tensor.Tensor{l.dx}
	case *SAGELSTMLayer:
		return []*tensor.Tensor{l.dx}
	}
	panic("nn: unknown layer type")
}

// TestFirstLayerBackwardSkipsInputGradient holds every layer's
// Backward(…, false) to Backward(…, true): nil instead of d(loss)/d(x),
// and the same parameter-gradient bits. A model never asks its first layer
// for the input gradient, so after TrainStep layer 0 holds no buffer for it
// while layer 1 does.
func TestFirstLayerBackwardSkipsInputGradient(t *testing.T) {
	gc, res := powerLawGraphCtx(300, 4000, 3, 17)
	x := tensor.Uniform(tensor.New(gc.NumVertices(), 23), tensor.NewRNG(74), -1, 1)
	labels := make([]int32, gc.NumVertices())
	copy(labels, res.Block)
	mask := make([]int32, 0, gc.NumVertices()/2)
	for v := int32(0); v < int32(gc.NumVertices()); v += 2 {
		mask = append(mask, v)
	}
	for kind := ModelKind(0); kind < NumModels; kind++ {
		m, err := NewModel(Config{
			Kind: kind, InDim: 23, Hidden: 40, OutDim: 5, Layers: 2,
			Heads: 2, NumTypes: 3, Seed: 19,
		})
		if err != nil {
			t.Fatal(err)
		}
		l := m.Layers()[0]
		dOut := tensor.Uniform(tensor.New(gc.NumVertices(), l.OutDim()), tensor.NewRNG(75), -1, 1)
		grads := func(needDX bool) ([][]float32, *tensor.Tensor) {
			for _, p := range l.Params() {
				p.ZeroGrad()
			}
			l.Forward(gc, x)
			dx := l.Backward(gc, dOut.Clone(), needDX)
			var gs [][]float32
			for _, p := range l.Params() {
				gs = append(gs, append([]float32(nil), p.Grad.Data()...))
			}
			return gs, dx
		}
		want, dx := grads(true)
		if dx == nil || dx.Dim(0) != gc.NumVertices() || dx.Dim(1) != l.InDim() {
			t.Fatalf("%v: Backward(…, true) returned %v, want a [%d %d] input gradient", kind, dx, gc.NumVertices(), l.InDim())
		}
		got, dx := grads(false)
		if dx != nil {
			t.Fatalf("%v: Backward(…, false) returned an input gradient", kind)
		}
		for i, p := range l.Params() {
			for j, v := range got[i] {
				if math.Float32bits(v) != math.Float32bits(want[i][j]) {
					t.Fatalf("%v: %s.Grad[%d] = %v without the input gradient, %v with it", kind, p.Name, j, v, want[i][j])
				}
			}
		}

		m, err = NewModel(m.Cfg)
		if err != nil {
			t.Fatal(err)
		}
		m.TrainStep(gc, x, labels, mask, NewAdam(1e-2, m.Params()))
		for li, l := range m.Layers() {
			for _, b := range inputGradBufs(l) {
				if (b != nil) != (li > 0) {
					t.Fatalf("%v: after TrainStep layer %d input-gradient buffer set = %v", kind, li, b != nil)
				}
			}
		}
	}
}
