package nn

import (
	"math"

	"wisegraph/internal/parallel"
	"wisegraph/internal/tensor"
)

// SAGELSTMLayer implements GraphSAGE with an LSTM aggregator (the paper's
// LSTM-class neural operation): for every destination vertex, an LSTM
// consumes its in-neighbors' features in edge order and the final hidden
// state is combined with the self feature:
//
//	h'[v] = h[v]·Wself + LSTM(h[src_1..k])·Wneigh + b
type SAGELSTMLayer struct {
	WSelf, WNeigh, B *Param
	// LSTM cell parameters: gates packed [i f o g].
	Wx *Param // [in, 4*hidden]
	Wh *Param // [hidden, 4*hidden]
	Bg *Param // [4*hidden]

	hidden int

	x *tensor.Tensor
	lstmActs
	dx, dHFinal *tensor.Tensor
}

// lstmActs are the forward's buffers (sticky in training, see bufs.go).
// The per-slot caches are BPTT's and stay nil under Infer.
type lstmActs struct {
	gates  *tensor.Tensor // [E, 4*hidden] post-activation gate values
	cells  *tensor.Tensor // [E, hidden] c_t
	hPrev  *tensor.Tensor // [E, hidden] h_{t-1} entering each step
	cPrev  *tensor.Tensor // [E, hidden] c_{t-1}
	hFinal *tensor.Tensor // [rows, hidden]
	out    *tensor.Tensor
}

// NewSAGELSTMLayer allocates a layer with LSTM hidden size = out.
func NewSAGELSTMLayer(rng *tensor.RNG, in, out int) *SAGELSTMLayer {
	return &SAGELSTMLayer{
		WSelf:  NewParam("lstm.Wself", rng, in, out),
		WNeigh: NewParam("lstm.Wneigh", rng, out, out),
		B:      NewZeroParam("lstm.b", out),
		Wx:     NewParam("lstm.Wx", rng, in, 4*out),
		Wh:     NewParam("lstm.Wh", rng, out, 4*out),
		Bg:     NewZeroParam("lstm.bg", 4*out),
		hidden: out,
	}
}

// Params implements Layer.
func (l *SAGELSTMLayer) Params() []*Param {
	return []*Param{l.WSelf, l.WNeigh, l.B, l.Wx, l.Wh, l.Bg}
}

// InDim implements Layer.
func (l *SAGELSTMLayer) InDim() int { return l.WSelf.Value.Dim(0) }

// OutDim implements Layer.
func (l *SAGELSTMLayer) OutDim() int { return l.WSelf.Value.Dim(1) }

// Forward implements Layer.
func (l *SAGELSTMLayer) Forward(gc *GraphCtx, x *tensor.Tensor) *tensor.Tensor {
	gc.mustAllRows()
	l.x = x
	l.forward(gc, x, &l.lstmActs, true)
	return l.out
}

// Infer implements Layer.
func (l *SAGELSTMLayer) Infer(gc *GraphCtx, x *tensor.Tensor) *tensor.Tensor {
	var a lstmActs
	l.forward(gc, x, &a, false)
	tensor.Put(a.hFinal)
	return a.out
}

// forward is the layer's one body over gc's destination rows, in a's
// buffers; with bptt it also fills the per-slot caches Backward reads.
// Destinations run in parallel; each one's neighbor sequence runs
// sequentially in gc's order (the data dependence the paper's Figure 18b
// batching works around).
func (l *SAGELSTMLayer) forward(gc *GraphCtx, x *tensor.Tensor, a *lstmActs, bptt bool) {
	e := gc.NumEdges()
	hd := l.hidden
	// Every edge slot is visited by exactly one destination segment, so
	// the per-slot caches are fully overwritten; only hFinal needs zeroing
	// (destinations without in-edges keep h = 0).
	if bptt {
		a.gates = buf2(a.gates, e, 4*hd)
		a.cells = buf2(a.cells, e, hd)
		a.hPrev = buf2(a.hPrev, e, hd)
		a.cPrev = buf2(a.cPrev, e, hd)
	}
	a.hFinal = zbuf2(a.hFinal, gc.NumRows(), hd)

	parallel.ForRange(gc.NumRows(), 4, func(lo, hi int) {
		scratch := tensor.GetF32(6 * hd)
		defer tensor.PutF32(scratch)
		h, c, z := scratch[:hd], scratch[hd:2*hd], scratch[2*hd:]
		for vi := lo; vi < hi; vi++ {
			clear(h)
			clear(c)
			for s := int(gc.CSR.RowPtr[vi]); s < int(gc.CSR.RowPtr[vi+1]); s++ {
				var g []float32
				if bptt {
					copy(a.hPrev.Row(s), h)
					copy(a.cPrev.Row(s), c)
					g = a.gates.Row(s)
				}
				xr := x.Row(int(gc.SrcByDst[s]))
				// z = x·Wx + h·Wh + bg
				copy(z, l.Bg.Value.Data())
				tensor.VecMatAcc(z, xr, l.Wx.Value)
				tensor.VecMatAcc(z, h, l.Wh.Value)
				for j := 0; j < hd; j++ {
					i := sigmoid32(z[j])
					f := sigmoid32(z[hd+j])
					o := sigmoid32(z[2*hd+j])
					gg := float32(math.Tanh(float64(z[3*hd+j])))
					if g != nil {
						g[j], g[hd+j], g[2*hd+j], g[3*hd+j] = i, f, o, gg
					}
					c[j] = f*c[j] + i*gg
					h[j] = o * float32(math.Tanh(float64(c[j])))
				}
				if bptt {
					copy(a.cells.Row(s), c)
				}
			}
			copy(a.hFinal.Row(vi), h)
		}
	})

	a.out = selfTransform(a.out, gc, x, l.WSelf.Value)
	tensor.MatMulAcc(a.out, a.hFinal, l.WNeigh.Value)
	tensor.AddBias(a.out, l.B.Value)
}

// Backward implements Layer (full BPTT through every vertex's neighbor
// sequence). It runs single-threaded for deterministic weight-gradient
// accumulation; the accuracy experiments train the other models, so LSTM
// backward throughput is not on any measured path.
func (l *SAGELSTMLayer) Backward(gc *GraphCtx, dOut *tensor.Tensor, needDX bool) *tensor.Tensor {
	accumBiasGrad(l.B.Grad, dOut)
	tensor.MatMulTransA(l.WSelf.Grad, l.x, dOut)
	tensor.MatMulTransA(l.WNeigh.Grad, l.hFinal, dOut)
	var dx *tensor.Tensor
	if needDX {
		l.dx = tensor.MatMulTransB(buf2(l.dx, dOut.Dim(0), l.WSelf.Value.Dim(0)), dOut, l.WSelf.Value)
		dx = l.dx
	}
	l.dHFinal = tensor.MatMulTransB(buf2(l.dHFinal, dOut.Dim(0), l.WNeigh.Value.Dim(0)), dOut, l.WNeigh.Value)
	dHFinal := l.dHFinal

	hd := l.hidden
	dz := make([]float32, 4*hd)
	dh := make([]float32, hd)
	dc := make([]float32, hd)
	for vi := 0; vi < gc.NumVertices(); vi++ {
		lo, hi := int(gc.CSR.RowPtr[vi]), int(gc.CSR.RowPtr[vi+1])
		if lo >= hi {
			continue
		}
		copy(dh, dHFinal.Row(vi))
		for j := range dc {
			dc[j] = 0
		}
		for s := hi - 1; s >= lo; s-- {
			g := l.gates.Row(s)
			c := l.cells.Row(s)
			cp := l.cPrev.Row(s)
			hp := l.hPrev.Row(s)
			for j := 0; j < hd; j++ {
				i, f, o, gg := g[j], g[hd+j], g[2*hd+j], g[3*hd+j]
				tc := float32(math.Tanh(float64(c[j])))
				do := dh[j] * tc
				dcj := dc[j] + dh[j]*o*(1-tc*tc)
				di := dcj * gg
				dgg := dcj * i
				df := dcj * cp[j]
				dc[j] = dcj * f
				dz[j] = di * i * (1 - i)
				dz[hd+j] = df * f * (1 - f)
				dz[2*hd+j] = do * o * (1 - o)
				dz[3*hd+j] = dgg * (1 - gg*gg)
			}
			// dWx += xᵀ·dz ; dWh += hprevᵀ·dz ; dbg += dz
			src := int(gc.SrcByDst[s])
			xr := l.x.Row(src)
			outerAcc(l.Wx.Grad, xr, dz)
			outerAcc(l.Wh.Grad, hp, dz)
			bg := l.Bg.Grad.Data()
			for j, v := range dz {
				bg[j] += v
			}
			// dx[src] += dz·Wxᵀ ; dh = dz·Whᵀ
			if needDX {
				matTVecAcc(dx.Row(src), dz, l.Wx.Value)
			}
			for j := range dh {
				dh[j] = 0
			}
			matTVecAcc(dh, dz, l.Wh.Value)
		}
	}
	return dx
}

// outerAcc accumulates g += aᵀ·b for row vectors a [m], b [n] into g [m,n].
func outerAcc(g *tensor.Tensor, a, b []float32) {
	n := len(b)
	gd := g.Data()
	for p, av := range a {
		if av == 0 {
			continue
		}
		tensor.AxpyRow(gd[p*n:(p+1)*n], av, b)
	}
}

// matTVecAcc accumulates out += v·Wᵀ for v [n] and W [m,n] into out [m].
func matTVecAcc(out, v []float32, w *tensor.Tensor) {
	n := w.Dim(1)
	wd := w.Data()
	for p := range out {
		row := wd[p*n : (p+1)*n]
		var s float32
		for j, x := range v {
			s += x * row[j]
		}
		out[p] += s
	}
}

func sigmoid32(x float32) float32 {
	return float32(1 / (1 + math.Exp(-float64(x))))
}
