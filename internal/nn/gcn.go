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
	return l.Aggregate(gc, l.Transform(x))
}

// Transform is the first stage, XW = x·W; it caches x for the backward.
func (l *GCNLayer) Transform(x *tensor.Tensor) *tensor.Tensor {
	l.x = x
	l.xw = tensor.MatMul(buf2(l.xw, x.Dim(0), l.OutDim()), x, l.W.Value)
	return l.xw
}

// Aggregate is the second stage, out = Â·xw + b over gc's in-edges.
func (l *GCNLayer) Aggregate(gc *GraphCtx, xw *tensor.Tensor) *tensor.Tensor {
	l.out = buf2(l.out, gc.NumVertices(), l.OutDim())
	l.out.Zero()
	EdgeSpMMBins(l.out, xw, gc.SrcByDst, gc.DstByDst, gc.InvDeg, gc.BinsByDst())
	tensor.AddBias(l.out, l.B.Value)
	return l.out
}

// Backward implements Layer.
func (l *GCNLayer) Backward(gc *GraphCtx, dOut *tensor.Tensor, needDX bool) *tensor.Tensor {
	return l.TransformBackward(l.AggregateBackward(gc, dOut), needDX)
}

// AggregateBackward adds the bias gradient and returns dXW = Âᵀ·dOut.
func (l *GCNLayer) AggregateBackward(gc *GraphCtx, dOut *tensor.Tensor) *tensor.Tensor {
	accumBiasGrad(l.B.Grad, dOut)
	// transpose aggregation: dXW[src] += w_e · dOut[dst]
	l.dXW = buf2(l.dXW, gc.NumVertices(), l.OutDim())
	l.dXW.Zero()
	EdgeSpMMBins(l.dXW, dOut, gc.DstByDst, gc.SrcByDst, gc.InvDeg, gc.BinsBySrc())
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

// accumBiasGrad adds the column sums of d to g.
func accumBiasGrad(g, d *tensor.Tensor) {
	n := g.Len()
	gd := g.Data()
	for i := 0; i < d.Rows(); i++ {
		row := d.Row(i)
		for j := 0; j < n; j++ {
			gd[j] += row[j]
		}
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
	l.x = x
	l.agg = buf2(l.agg, gc.NumVertices(), l.InDim())
	l.out = tensor.MatMul(buf2(l.out, x.Dim(0), l.OutDim()), x, l.WSelf.Value)
	l.agg.Zero()
	EdgeSpMMBins(l.agg, x, gc.SrcByDst, gc.DstByDst, gc.InvDeg, gc.BinsByDst())
	tensor.MatMulAcc(l.out, l.agg, l.WNeigh.Value)
	tensor.AddBias(l.out, l.B.Value)
	return l.out
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
	EdgeSpMMBins(l.dx, l.dAgg, gc.DstByDst, gc.SrcByDst, gc.InvDeg, gc.BinsBySrc())
	return l.dx
}
