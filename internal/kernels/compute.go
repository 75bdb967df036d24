package kernels

import (
	"fmt"
	"math"
	"slices"

	"wisegraph/internal/core"
	"wisegraph/internal/dfg"
	"wisegraph/internal/exec"
	"wisegraph/internal/graph"
	"wisegraph/internal/nn"
	"wisegraph/internal/obs"
	"wisegraph/internal/tensor"
)

// RunModel executes a full forward pass with the gTask strategy: shared
// dense transforms as per-layer tensor-core kernels, then one fused kernel
// per layer whose work items are the partition's gTasks. The layer
// execution itself goes through the Engine selected by ctx.Engine (see
// engine.go); the numeric output is computed by the engine (not delegated
// to the reference), so tests can verify the gTask machinery end to end.
func RunModel(ctx *exec.Ctx, gc *nn.GraphCtx, m *nn.Model, x *tensor.Tensor, part *core.Partition, plan Plan) (*tensor.Tensor, error) {
	eng, err := Select(ctx.Engine)
	if err != nil {
		return nil, err
	}
	if err := eng.Probe(m.Cfg.Kind, part.Plan); err != nil {
		return nil, err
	}
	sp := obs.Begin(obs.StageExec, ctx.TraceID)
	defer sp.End()
	cur := x
	for li, layer := range m.Layers() {
		sh := LayerShape{Kind: m.Cfg.Kind, F: layer.InDim(), Fp: layer.OutDim(), Types: m.Cfg.NumTypes}
		out, err := eng.RunLayer(ctx, gc, layer, sh, cur, part, plan)
		if err != nil {
			return nil, err
		}
		if ctx.Compute {
			prev := cur
			if li < len(m.Layers())-1 {
				cur = tensor.ReLU(tensor.Get(out.Shape()...), out)
				tensor.Put(out)
			} else {
				cur = out
			}
			if prev != x {
				tensor.Put(prev)
			}
		}
	}
	if !ctx.Compute {
		return nil, nil
	}
	return cur, nil
}

// RunModelLayer executes exactly one layer of the model through the
// engine selected by ctx.Engine — the layer-boundary entry the serving
// tier's leveled forward uses so it can splice cached embedding rows in
// between layers. No activation is applied: the caller owns the ReLU (and
// must match RunModel's placement — after every layer but the last) so
// cached rows and freshly computed rows go through identical math. The
// span accounting mirrors RunModel: the call is recorded under StageExec
// against ctx.TraceID.
func RunModelLayer(ctx *exec.Ctx, gc *nn.GraphCtx, m *nn.Model, li int, x *tensor.Tensor, part *core.Partition, plan Plan) (*tensor.Tensor, error) {
	sp := obs.Begin(obs.StageExec, ctx.TraceID)
	defer sp.End()
	eng, err := Select(ctx.Engine)
	if err != nil {
		return nil, err
	}
	if err := eng.Probe(m.Cfg.Kind, part.Plan); err != nil {
		return nil, err
	}
	layers := m.Layers()
	if li < 0 || li >= len(layers) {
		return nil, fmt.Errorf("kernels: layer %d out of range [0,%d)", li, len(layers))
	}
	layer := layers[li]
	sh := LayerShape{Kind: m.Cfg.Kind, F: layer.InDim(), Fp: layer.OutDim(), Types: m.Cfg.NumTypes}
	return eng.RunLayer(ctx, gc, layer, sh, x, part, plan)
}

// invDegOf returns the mean-normalization weight of an edge (1/in-degree
// of its destination, 0 for isolated destinations).
func invDegOf(g *graphT) func(int32) float32 {
	inDeg := g.InDegrees()
	return func(e int32) float32 {
		d := inDeg[g.Dst[e]]
		if d == 0 {
			return 0
		}
		return 1 / float32(d)
	}
}

// computeLayer is the blocked-engine computation over gTasks: separate
// gather, transform and scatter-add passes with per-edge read-modify-write
// accumulation.
func computeLayer(gc *nn.GraphCtx, layer nn.Layer, x *tensor.Tensor, part *core.Partition, plan Plan) (*tensor.Tensor, error) {
	g := gc.G
	invDeg := invDegOf(g)
	switch l := layer.(type) {
	case *nn.GCNLayer:
		xw := tensor.MatMul(tensor.Get(x.Dim(0), l.OutDim()), x, l.W.Value)
		defer tensor.Put(xw)
		out := tensor.Get(g.NumVertices, l.OutDim())
		forEachTaskEdge(part, func(e int32) {
			src, dst := g.Src[e], g.Dst[e]
			tensor.AxpyRow(out.Row(int(dst)), invDeg(e), xw.Row(int(src)))
		})
		tensor.AddBias(out, l.B.Value)
		return out, nil

	case *nn.SAGELayer:
		agg := tensor.Get(g.NumVertices, l.InDim())
		defer tensor.Put(agg)
		forEachTaskEdge(part, func(e int32) {
			src, dst := g.Src[e], g.Dst[e]
			tensor.AxpyRow(agg.Row(int(dst)), invDeg(e), x.Row(int(src)))
		})
		out := tensor.MatMul(tensor.Get(x.Dim(0), l.OutDim()), x, l.WSelf.Value)
		tensor.MatMulAcc(out, agg, l.WNeigh.Value)
		tensor.AddBias(out, l.B.Value)
		return out, nil

	case *nn.RGCNLayer:
		return computeRGCN(g, l, x, part, plan, invDeg)

	case *nn.GATLayer:
		return computeGAT(gc, l, x, part)

	case *nn.SAGELSTMLayer:
		return computeLSTM(g, l, x, part)
	}
	return nil, fmt.Errorf("kernels: unsupported layer type %T", layer)
}

// forEachTaskEdge visits every edge task by task.
func forEachTaskEdge(part *core.Partition, fn func(e int32)) {
	for ti := 0; ti < part.NumTasks(); ti++ {
		for _, e := range part.TaskEdges(ti) {
			fn(e)
		}
	}
}

// computeRGCN runs the RGCN aggregation per task, with the dedup'd
// outer-product micro-kernel (paper Figure 10c) when the plan asks for it.
func computeRGCN(g *graphT, l *nn.RGCNLayer, x *tensor.Tensor, part *core.Partition, plan Plan, invDeg func(int32) float32) (*tensor.Tensor, error) {
	in, outDim := l.InDim(), l.OutDim()
	out := tensor.MatMul(tensor.Get(x.Dim(0), outDim), x, l.WSelf.Value)
	msg := make([]float32, outDim)
	for ti := 0; ti < part.NumTasks(); ti++ {
		edges := part.TaskEdges(ti)
		if plan.Dedup {
			// unique-value extraction on src and type, then the
			// outer-product compute + 2-D indexing.
			srcs := make([]int32, len(edges))
			typs := make([]int32, len(edges))
			for i, e := range edges {
				srcs[i] = g.Src[e]
				typs[i] = g.EdgeType(int(e))
			}
			uSrc, mSrc := dfg.UniqueExtract(srcs)
			uTyp, mTyp := dfg.UniqueExtract(typs)
			// pair products [m, n, outDim]
			prod := tensor.Get(len(uSrc), len(uTyp), outDim)
			for i, sv := range uSrc {
				xr := x.Row(int(sv))
				for j, tv := range uTyp {
					w := tensor.FromSlice(l.W.Value.Data()[int(tv)*in*outDim:(int(tv)+1)*in*outDim], in, outDim)
					tensor.VecMat(prod.Data()[(i*len(uTyp)+j)*outDim:(i*len(uTyp)+j+1)*outDim], xr, w)
				}
			}
			for i, e := range edges {
				pr := prod.Data()[(int(mSrc[i])*len(uTyp)+int(mTyp[i]))*outDim : (int(mSrc[i])*len(uTyp)+int(mTyp[i])+1)*outDim]
				tensor.AxpyRow(out.Row(int(g.Dst[e])), invDeg(e), pr)
			}
			tensor.Put(prod)
		} else {
			for _, e := range edges {
				tv := g.EdgeType(int(e))
				w := tensor.FromSlice(l.W.Value.Data()[int(tv)*in*outDim:(int(tv)+1)*in*outDim], in, outDim)
				tensor.VecMat(msg, x.Row(int(g.Src[e])), w)
				tensor.AxpyRow(out.Row(int(g.Dst[e])), invDeg(e), msg)
			}
		}
	}
	tensor.AddBias(out, l.B.Value)
	return out, nil
}

// gatScores runs the GAT phases shared by every engine: the dense Z
// transform, attention projections, per-edge leaky-ReLU scores, and the
// per-(dst,head) stable softmax. The softmax runs over the whole edge set
// (three passes) so normalization is exact regardless of how tasks split
// a destination's in-edges. It returns Z, the normalized score numerators
// and the per-destination sums; the caller owns all three (tensor.Put).
func gatScores(gc *nn.GraphCtx, l *nn.GATLayer, x *tensor.Tensor, part *core.Partition) (z, score, sum *tensor.Tensor) {
	g := gc.G
	heads := l.Heads()
	dh := l.OutDim() / heads
	z = tensor.MatMul(tensor.Get(x.Dim(0), l.OutDim()), x, l.W.Value)
	v := g.NumVertices
	// projections
	pl := tensor.Get(v, heads)
	pr := tensor.Get(v, heads)
	defer tensor.Put(pl)
	defer tensor.Put(pr)
	for vi := 0; vi < v; vi++ {
		zr := z.Row(vi)
		plr, prr := pl.Row(vi), pr.Row(vi)
		for h := 0; h < heads; h++ {
			alr, arr := l.AL.Value.Row(h), l.AR.Value.Row(h)
			var sl, sr float32
			for d := 0; d < dh; d++ {
				sl += alr[d] * zr[h*dh+d]
				sr += arr[d] * zr[h*dh+d]
			}
			plr[h], prr[h] = sl, sr
		}
	}
	e := g.NumEdges()
	score = tensor.Get(e, heads)
	forEachTaskEdge(part, func(ei int32) {
		sr := score.Row(int(ei))
		plr := pl.Row(int(g.Src[ei]))
		prr := pr.Row(int(g.Dst[ei]))
		for h := 0; h < heads; h++ {
			s := plr[h] + prr[h]
			if s < 0 {
				s *= 0.2 // leaky relu, slope matches nn.GATLayer
			}
			sr[h] = s
		}
	})
	// per-dst stable softmax over the whole edge set (three passes)
	maxS := tensor.Get(v, heads)
	defer tensor.Put(maxS)
	for i, d := 0, maxS.Data(); i < len(d); i++ {
		d[i] = float32(math.Inf(-1))
	}
	for ei := 0; ei < e; ei++ {
		mr := maxS.Row(int(g.Dst[ei]))
		sr := score.Row(ei)
		for h := 0; h < heads; h++ {
			if sr[h] > mr[h] {
				mr[h] = sr[h]
			}
		}
	}
	sum = tensor.Get(v, heads)
	for ei := 0; ei < e; ei++ {
		d := int(g.Dst[ei])
		sr := score.Row(ei)
		mr := maxS.Row(d)
		zr := sum.Row(d)
		for h := 0; h < heads; h++ {
			ev := float32(math.Exp(float64(sr[h] - mr[h])))
			sr[h] = ev
			zr[h] += ev
		}
	}
	return z, score, sum
}

// computeGAT is the blocked GAT path: shared score/softmax phases, then a
// per-edge read-modify-write aggregation over the tasks.
func computeGAT(gc *nn.GraphCtx, l *nn.GATLayer, x *tensor.Tensor, part *core.Partition) (*tensor.Tensor, error) {
	g := gc.G
	heads := l.Heads()
	dh := l.OutDim() / heads
	z, score, sum := gatScores(gc, l, x, part)
	defer tensor.Put(z)
	defer tensor.Put(score)
	defer tensor.Put(sum)
	out := tensor.Get(g.NumVertices, l.OutDim())
	forEachTaskEdge(part, func(ei int32) {
		src, dst := int(g.Src[ei]), int(g.Dst[ei])
		sr := score.Row(int(ei))
		zr := z.Row(src)
		or := out.Row(dst)
		su := sum.Row(dst)
		for h := 0; h < heads; h++ {
			if su[h] == 0 {
				continue
			}
			tensor.AxpyRow(or[h*dh:(h+1)*dh], sr[h]/su[h], zr[h*dh:(h+1)*dh])
		}
	})
	tensor.AddBias(out, l.B.Value)
	return out, nil
}

// computeLSTM runs the per-destination recurrences task by task. The
// validity filter guarantees each destination's edges are contiguous in
// one task and in original (CSR-equivalent) order.
func computeLSTM(g *graphT, l *nn.SAGELSTMLayer, x *tensor.Tensor, part *core.Partition) (*tensor.Tensor, error) {
	hd := l.OutDim()
	f := l.InDim()
	hFinal := tensor.Get(g.NumVertices, hd)
	defer tensor.Put(hFinal)
	h := make([]float32, hd)
	c := make([]float32, hd)
	zbuf := make([]float32, 4*hd)
	for ti := 0; ti < part.NumTasks(); ti++ {
		edges := part.TaskEdges(ti)
		i := 0
		for i < len(edges) {
			dst := g.Dst[edges[i]]
			j := i
			for j < len(edges) && g.Dst[edges[j]] == dst {
				j++
			}
			// run the LSTM over edges[i:j] in ascending edge order
			run := append([]int32(nil), edges[i:j]...)
			slices.Sort(run)
			for k := range h {
				h[k], c[k] = 0, 0
			}
			for _, e := range run {
				xr := x.Row(int(g.Src[e]))
				copy(zbuf, l.Bg.Value.Data())
				tensor.VecMatAcc(zbuf, xr, l.Wx.Value)
				tensor.VecMatAcc(zbuf, h, l.Wh.Value)
				for k := 0; k < hd; k++ {
					ig := sigm(zbuf[k])
					fg := sigm(zbuf[hd+k])
					og := sigm(zbuf[2*hd+k])
					gg := float32(math.Tanh(float64(zbuf[3*hd+k])))
					c[k] = fg*c[k] + ig*gg
					h[k] = og * float32(math.Tanh(float64(c[k])))
				}
			}
			copy(hFinal.Row(int(dst)), h)
			i = j
		}
	}
	_ = f
	out := tensor.MatMul(tensor.Get(x.Dim(0), hd), x, l.WSelf.Value)
	tensor.MatMulAcc(out, hFinal, l.WNeigh.Value)
	tensor.AddBias(out, l.B.Value)
	return out, nil
}

// graphT aliases the graph type to keep signatures short.
type graphT = graph.Graph

func sigm(x float32) float32 { return float32(1 / (1 + math.Exp(-float64(x)))) }
