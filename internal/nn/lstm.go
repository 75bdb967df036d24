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

	// caches for BPTT, per CSR edge slot (sticky buffers, see bufs.go)
	x      *tensor.Tensor
	gates  *tensor.Tensor // [E, 4*hidden] post-activation gate values
	cells  *tensor.Tensor // [E, hidden] c_t
	hPrev  *tensor.Tensor // [E, hidden] h_{t-1} entering each step
	cPrev  *tensor.Tensor // [E, hidden] c_{t-1}
	hFinal *tensor.Tensor // [V, hidden]

	out, dx, dHFinal *tensor.Tensor
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

// Forward implements Layer. Vertices run in parallel; each vertex's
// neighbor sequence runs sequentially (the data dependence the paper's
// Figure 18b batching works around).
func (l *SAGELSTMLayer) Forward(gc *GraphCtx, x *tensor.Tensor) *tensor.Tensor {
	l.x = x
	v := gc.NumVertices()
	e := gc.NumEdges()
	hd := l.hidden
	// Every edge slot is visited by exactly one vertex segment, so the
	// per-slot caches are fully overwritten; only hFinal needs zeroing
	// (vertices without in-edges keep h = 0).
	l.gates = buf2(l.gates, e, 4*hd)
	l.cells = buf2(l.cells, e, hd)
	l.hPrev = buf2(l.hPrev, e, hd)
	l.cPrev = buf2(l.cPrev, e, hd)
	l.hFinal = buf2(l.hFinal, v, hd)
	l.hFinal.Zero()

	parallel.For(v, 4, func(vi int) {
		lo, hi := int(gc.CSR.RowPtr[vi]), int(gc.CSR.RowPtr[vi+1])
		if lo >= hi {
			return
		}
		h := make([]float32, hd)
		c := make([]float32, hd)
		z := make([]float32, 4*hd)
		for s := lo; s < hi; s++ {
			copy(l.hPrev.Row(s), h)
			copy(l.cPrev.Row(s), c)
			xr := x.Row(int(gc.SrcByDst[s]))
			// z = x·Wx + h·Wh + bg
			copy(z, l.Bg.Value.Data())
			tensor.VecMatAcc(z, xr, l.Wx.Value)
			tensor.VecMatAcc(z, h, l.Wh.Value)
			g := l.gates.Row(s)
			for j := 0; j < hd; j++ {
				i := sigmoid32(z[j])
				f := sigmoid32(z[hd+j])
				o := sigmoid32(z[2*hd+j])
				gg := float32(math.Tanh(float64(z[3*hd+j])))
				g[j], g[hd+j], g[2*hd+j], g[3*hd+j] = i, f, o, gg
				c[j] = f*c[j] + i*gg
				h[j] = o * float32(math.Tanh(float64(c[j])))
			}
			copy(l.cells.Row(s), c)
		}
		copy(l.hFinal.Row(vi), h)
	})

	l.out = tensor.MatMul(buf2(l.out, x.Dim(0), l.OutDim()), x, l.WSelf.Value)
	tensor.MatMulAcc(l.out, l.hFinal, l.WNeigh.Value)
	tensor.AddBias(l.out, l.B.Value)
	return l.out
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
