package nn

import "wisegraph/internal/tensor"

// GCNLayer implements h' = Â·(h·W) + b with random-walk normalization
// Â[d,s] = 1/deg(d). Its neural operation is plain addition, placing GCN
// in the paper's "simple" model class.
type GCNLayer struct {
	W, B *Param

	// caches and sticky buffers (see bufs.go)
	x, xw   *tensor.Tensor
	out     *tensor.Tensor
	dXW, dX *tensor.Tensor
}

// NewGCNLayer allocates a layer mapping in → out features.
func NewGCNLayer(rng *tensor.RNG, in, out int) *GCNLayer {
	return &GCNLayer{W: NewParam("gcn.W", rng, in, out), B: NewZeroParam("gcn.b", out)}
}

// Params implements Layer.
func (l *GCNLayer) Params() []*Param { return []*Param{l.W, l.B} }

// InDim implements Layer.
func (l *GCNLayer) InDim() int { return l.W.Value.Dim(0) }

// OutDim implements Layer.
func (l *GCNLayer) OutDim() int { return l.W.Value.Dim(1) }

// Forward implements Layer: Aggregate(Transform(x)).
func (l *GCNLayer) Forward(gc *GraphCtx, x *tensor.Tensor) *tensor.Tensor {
	gc.mustAllRows()
	return l.Aggregate(gc, l.Transform(x))
}

// Infer implements Layer.
func (l *GCNLayer) Infer(gc *GraphCtx, x *tensor.Tensor) *tensor.Tensor {
	xw := l.transform(nil, x)
	defer tensor.Put(xw)
	return l.aggregate(nil, gc, xw)
}

// Transform is the first stage, XW = x·W; it caches x for the backward.
func (l *GCNLayer) Transform(x *tensor.Tensor) *tensor.Tensor {
	l.x = x
	l.xw = l.transform(l.xw, x)
	return l.xw
}

// transform computes x·W over every input row (any may be an edge source)
// into buf.
func (l *GCNLayer) transform(buf, x *tensor.Tensor) *tensor.Tensor {
	return tensor.MatMul(buf2(buf, x.Dim(0), l.OutDim()), x, l.W.Value)
}

// Aggregate is the second stage, out = Â·xw + b over gc's in-edges.
func (l *GCNLayer) Aggregate(gc *GraphCtx, xw *tensor.Tensor) *tensor.Tensor {
	l.out = l.aggregate(l.out, gc, xw)
	return l.out
}

// aggregate computes Â·xw + b over gc's destination rows into buf.
func (l *GCNLayer) aggregate(buf *tensor.Tensor, gc *GraphCtx, xw *tensor.Tensor) *tensor.Tensor {
	out := zbuf2(buf, gc.NumRows(), l.OutDim())
	EdgeSpMM(out, xw, gc.CSR.RowPtr, gc.SrcByDst, gc.InvDeg)
	tensor.AddBias(out, l.B.Value)
	return out
}

// Backward implements Layer.
func (l *GCNLayer) Backward(gc *GraphCtx, dOut *tensor.Tensor, needDX bool) *tensor.Tensor {
	return l.TransformBackward(l.AggregateBackward(gc, dOut), needDX)
}

// AggregateBackward adds the bias gradient and returns dXW = Âᵀ·dOut.
func (l *GCNLayer) AggregateBackward(gc *GraphCtx, dOut *tensor.Tensor) *tensor.Tensor {
	accumBiasGrad(l.B.Grad, dOut)
	// transpose aggregation: dXW[src] += w_e · dOut[dst]
	l.dXW = zbuf2(l.dXW, gc.NumVertices(), l.OutDim())
	ptr, dst, w := gc.BySrc()
	EdgeSpMM(l.dXW, dOut, ptr, dst, w)
	return l.dXW
}

// TransformBackward adds xᵀ·dXW to W's gradient and, with needDX, returns
// dX = dXW·Wᵀ (else nil).
func (l *GCNLayer) TransformBackward(dXW *tensor.Tensor, needDX bool) *tensor.Tensor {
	tensor.MatMulTransA(l.W.Grad, l.x, dXW)
	if !needDX {
		return nil
	}
	l.dX = tensor.MatMulTransB(buf2(l.dX, dXW.Dim(0), l.InDim()), dXW, l.W.Value)
	return l.dX
}

// accumBiasGrad adds the column sums of d to g, row by row in order.
func accumBiasGrad(g, d *tensor.Tensor) {
	gd := g.Data()
	for i := 0; i < d.Rows(); i++ {
		tensor.AddRow(gd, d.Row(i))
	}
}

// SAGELayer implements GraphSAGE with mean aggregation:
// h' = h·Wself + mean_neigh(h)·Wneigh + b (simple class).
type SAGELayer struct {
	WSelf, WNeigh, B *Param

	// caches and sticky buffers
	x, agg   *tensor.Tensor
	out      *tensor.Tensor
	dx, dAgg *tensor.Tensor
}

// NewSAGELayer allocates a layer mapping in → out features.
func NewSAGELayer(rng *tensor.RNG, in, out int) *SAGELayer {
	return &SAGELayer{
		WSelf:  NewParam("sage.Wself", rng, in, out),
		WNeigh: NewParam("sage.Wneigh", rng, in, out),
		B:      NewZeroParam("sage.b", out),
	}
}

// Params implements Layer.
func (l *SAGELayer) Params() []*Param { return []*Param{l.WSelf, l.WNeigh, l.B} }

// InDim implements Layer.
func (l *SAGELayer) InDim() int { return l.WSelf.Value.Dim(0) }

// OutDim implements Layer.
func (l *SAGELayer) OutDim() int { return l.WSelf.Value.Dim(1) }

// Forward implements Layer.
func (l *SAGELayer) Forward(gc *GraphCtx, x *tensor.Tensor) *tensor.Tensor {
	gc.mustAllRows()
	l.x = x
	l.agg, l.out = l.forward(gc, x, l.agg, l.out)
	return l.out
}

// Infer implements Layer.
func (l *SAGELayer) Infer(gc *GraphCtx, x *tensor.Tensor) *tensor.Tensor {
	agg, out := l.forward(gc, x, nil, nil)
	tensor.Put(agg)
	return out
}

// forward is the layer's one body over gc's destination rows, in the
// buffers agg (the neighbour mean) and out.
func (l *SAGELayer) forward(gc *GraphCtx, x, agg, out *tensor.Tensor) (*tensor.Tensor, *tensor.Tensor) {
	out = selfTransform(out, gc, x, l.WSelf.Value)
	agg = zbuf2(agg, gc.NumRows(), l.InDim())
	EdgeSpMM(agg, x, gc.CSR.RowPtr, gc.SrcByDst, gc.InvDeg)
	// The neighbour mean meets in memory before the dense transform:
	// partial products Σ₁·W + Σ₂·W would not be bitwise (Σ₁+Σ₂)·W.
	tensor.MatMulAcc(out, agg, l.WNeigh.Value)
	tensor.AddBias(out, l.B.Value)
	return agg, out
}

// Backward implements Layer.
func (l *SAGELayer) Backward(gc *GraphCtx, dOut *tensor.Tensor, needDX bool) *tensor.Tensor {
	accumBiasGrad(l.B.Grad, dOut)
	tensor.MatMulTransA(l.WSelf.Grad, l.x, dOut)
	tensor.MatMulTransA(l.WNeigh.Grad, l.agg, dOut)
	if !needDX {
		return nil
	}
	l.dx = tensor.MatMulTransB(buf2(l.dx, dOut.Dim(0), l.WSelf.Value.Dim(0)), dOut, l.WSelf.Value)
	l.dAgg = tensor.MatMulTransB(buf2(l.dAgg, dOut.Dim(0), l.WNeigh.Value.Dim(0)), dOut, l.WNeigh.Value)
	// transpose mean aggregation back to sources
	ptr, dst, w := gc.BySrc()
	EdgeSpMM(l.dx, l.dAgg, ptr, dst, w)
	return l.dx
}
