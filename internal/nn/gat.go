package nn

import (
	"math"

	"wisegraph/internal/parallel"
	"wisegraph/internal/tensor"
)

// GATLayer implements multi-head graph attention (the paper's MHA-class
// neural operation):
//
//	Z = h·W                              (heads × Dh packed in columns)
//	s_e,h   = aL_h·Z[src] + aR_h·Z[dst]
//	α_e,h   = softmax over dst's in-edges of LeakyReLU(s)
//	h'[dst] = Σ_e α_e,h · Z[src]         (per head, concatenated)
type GATLayer struct {
	W      *Param // [in, heads*dh]
	AL, AR *Param // [heads, dh]
	B      *Param // [heads*dh]

	heads, dh int
	slope     float32

	// caches and sticky buffers (see bufs.go)
	x *tensor.Tensor
	gatActs
	dZ     *tensor.Tensor
	dAlpha *tensor.Tensor
	dScore *tensor.Tensor
	dpl    *tensor.Tensor
	dpr    *tensor.Tensor
	dX     *tensor.Tensor
}

// NewGATLayer allocates a layer with the given head count; out must be a
// multiple of heads.
func NewGATLayer(rng *tensor.RNG, in, out, heads int) *GATLayer {
	if out%heads != 0 {
		panic("nn: GAT out dimension must be divisible by heads")
	}
	dh := out / heads
	return &GATLayer{
		W:     NewParam("gat.W", rng, in, out),
		AL:    NewParam("gat.aL", rng, heads, dh),
		AR:    NewParam("gat.aR", rng, heads, dh),
		B:     NewZeroParam("gat.b", out),
		heads: heads, dh: dh, slope: 0.2,
	}
}

// Params implements Layer.
func (l *GATLayer) Params() []*Param { return []*Param{l.W, l.AL, l.AR, l.B} }

// InDim implements Layer.
func (l *GATLayer) InDim() int { return l.W.Value.Dim(0) }

// OutDim implements Layer.
func (l *GATLayer) OutDim() int { return l.W.Value.Dim(1) }

// gatActs are the forward's buffers: what Backward reads, and the output.
type gatActs struct {
	z      *tensor.Tensor // [V, heads*dh]
	pl, pr *tensor.Tensor // [V, heads] and [rows, heads] projections
	scores *tensor.Tensor // [E, heads] pre-activation
	alpha  *tensor.Tensor // [E, heads] attention weights
	out    *tensor.Tensor
}

// project computes p[i,h] = Σ_d a[h,d]·Z[v,h*dh+d] for v = rows[i] (every
// row of z when rows is nil) into the sticky buffer dst (reallocated on
// shape change).
func (l *GATLayer) project(dst, z *tensor.Tensor, rows []int32, a *Param) *tensor.Tensor {
	n := z.Rows()
	if rows != nil {
		n = len(rows)
	}
	p := buf2(dst, n, l.heads)
	parallel.For(n, 64, func(i int) {
		v := i
		if rows != nil {
			v = int(rows[i])
		}
		zr := z.Row(v)
		pr := p.Row(i)
		for h := 0; h < l.heads; h++ {
			ar := a.Value.Row(h)
			var s float32
			for d := 0; d < l.dh; d++ {
				s += ar[d] * zr[h*l.dh+d]
			}
			pr[h] = s
		}
	})
	return p
}

// Forward implements Layer.
func (l *GATLayer) Forward(gc *GraphCtx, x *tensor.Tensor) *tensor.Tensor {
	gc.mustAllRows()
	l.x = x
	l.forward(gc, x, &l.gatActs)
	return l.out
}

// Infer implements Layer.
func (l *GATLayer) Infer(gc *GraphCtx, x *tensor.Tensor) *tensor.Tensor {
	var a gatActs
	l.forward(gc, x, &a)
	for _, t := range []*tensor.Tensor{a.z, a.pl, a.pr, a.scores, a.alpha} {
		tensor.Put(t)
	}
	return a.out
}

// forward is the layer's one body over gc's destination rows, in a's
// buffers. Z and the left projection cover every input row (any may be an
// edge source); the right projection, softmax and output cover the rows.
func (l *GATLayer) forward(gc *GraphCtx, x *tensor.Tensor, a *gatActs) {
	a.z = tensor.MatMul(buf2(a.z, x.Dim(0), l.OutDim()), x, l.W.Value)
	a.pl = l.project(a.pl, a.z, nil, l.AL)
	a.pr = l.project(a.pr, a.z, gc.Rows, l.AR)
	e := gc.NumEdges()
	a.scores = buf2(a.scores, e, l.heads)
	for s := 0; s < e; s++ {
		sr := a.scores.Row(s)
		plr := a.pl.Row(int(gc.SrcByDst[s]))
		prr := a.pr.Row(int(gc.DstByDst[s]))
		for h := 0; h < l.heads; h++ {
			sr[h] = plr[h] + prr[h]
		}
	}
	// LeakyReLU then per-(dst, head) softmax over CSR segments.
	a.alpha = tensor.LeakyReLU(buf2(a.alpha, e, l.heads), a.scores, l.slope)
	l.segmentSoftmaxByHead(gc, a.alpha)

	out := zbuf2(a.out, gc.NumRows(), l.OutDim())
	a.out = out
	parallel.For(gc.NumRows(), 16, func(v int) {
		orow := out.Row(v)
		for s := gc.CSR.RowPtr[v]; s < gc.CSR.RowPtr[v+1]; s++ {
			zr := a.z.Row(int(gc.SrcByDst[s]))
			ar := a.alpha.Row(int(s))
			for h := 0; h < l.heads; h++ {
				tensor.AxpyRow(orow[h*l.dh:(h+1)*l.dh], ar[h], zr[h*l.dh:(h+1)*l.dh])
			}
		}
	})
	tensor.AddBias(out, l.B.Value)
}

// segmentSoftmaxByHead normalizes vals [E, heads] per destination segment
// and head, in place.
func (l *GATLayer) segmentSoftmaxByHead(gc *GraphCtx, vals *tensor.Tensor) {
	d, hs := vals.Data(), l.heads
	parallel.For(gc.NumRows(), 16, func(v int) {
		lo, hi := int(gc.CSR.RowPtr[v]), int(gc.CSR.RowPtr[v+1])
		if lo >= hi {
			return
		}
		for h := 0; h < hs; h++ {
			maxv := d[lo*hs+h]
			for s := lo + 1; s < hi; s++ {
				if x := d[s*hs+h]; x > maxv {
					maxv = x
				}
			}
			var sum float64
			for s := lo; s < hi; s++ {
				ev := math.Exp(float64(d[s*hs+h] - maxv))
				d[s*hs+h] = float32(ev)
				sum += ev
			}
			inv := float32(1 / sum)
			for s := lo; s < hi; s++ {
				d[s*hs+h] *= inv
			}
		}
	})
}

// Backward implements Layer.
func (l *GATLayer) Backward(gc *GraphCtx, dOut *tensor.Tensor, needDX bool) *tensor.Tensor {
	accumBiasGrad(l.B.Grad, dOut)
	e := gc.NumEdges()
	dZ := zbuf2(l.dZ, l.z.Dim(0), l.z.Dim(1))
	l.dZ = dZ
	dAlpha := buf2(l.dAlpha, e, l.heads)
	l.dAlpha = dAlpha
	// dα_e,h = Σ_d dOut[dst,h,d]·Z[src,h,d] ; dZ[src] += α·dOut[dst]
	for s := 0; s < e; s++ {
		src, dst := int(gc.SrcByDst[s]), int(gc.DstByDst[s])
		zr := l.z.Row(src)
		dzr := dZ.Row(src)
		dor := dOut.Row(dst)
		ar := l.alpha.Row(s)
		dar := dAlpha.Row(s)
		for h := 0; h < l.heads; h++ {
			var g float32
			for d := 0; d < l.dh; d++ {
				g += dor[h*l.dh+d] * zr[h*l.dh+d]
				dzr[h*l.dh+d] += ar[h] * dor[h*l.dh+d]
			}
			dar[h] = g
		}
	}
	// softmax backward per segment: ds = α·(dα − Σ α·dα). Every edge slot
	// lies in exactly one destination segment, so the loop overwrites the
	// whole buffer and no Zero is needed.
	dScore := buf2(l.dScore, e, l.heads)
	l.dScore = dScore
	for v := 0; v < gc.NumVertices(); v++ {
		lo, hi := int(gc.CSR.RowPtr[v]), int(gc.CSR.RowPtr[v+1])
		for h := 0; h < l.heads; h++ {
			var dot float64
			for s := lo; s < hi; s++ {
				dot += float64(l.alpha.At(s, h) * dAlpha.At(s, h))
			}
			for s := lo; s < hi; s++ {
				a := l.alpha.At(s, h)
				dScore.Set(a*(dAlpha.At(s, h)-float32(dot)), s, h)
			}
		}
	}
	// LeakyReLU backward on pre-activation scores (in place).
	dScore = tensor.LeakyReLUGrad(dScore, dScore, l.scores, l.slope)
	// score = pl[src] + pr[dst]
	dpl := zbuf2(l.dpl, l.pl.Dim(0), l.pl.Dim(1))
	l.dpl = dpl
	dpr := zbuf2(l.dpr, l.pr.Dim(0), l.pr.Dim(1))
	l.dpr = dpr
	for s := 0; s < e; s++ {
		src, dst := int(gc.SrcByDst[s]), int(gc.DstByDst[s])
		dsr := dScore.Row(s)
		plr := dpl.Row(src)
		prr := dpr.Row(dst)
		for h := 0; h < l.heads; h++ {
			plr[h] += dsr[h]
			prr[h] += dsr[h]
		}
	}
	// p = Σ_d a[h,d]·Z[v,h,d]: propagate into dZ, dAL, dAR.
	for v := 0; v < gc.NumVertices(); v++ {
		zr := l.z.Row(v)
		dzr := dZ.Row(v)
		for h := 0; h < l.heads; h++ {
			gl := dpl.At(v, h)
			gr := dpr.At(v, h)
			alr := l.AL.Value.Row(h)
			arr := l.AR.Value.Row(h)
			galr := l.AL.Grad.Row(h)
			garr := l.AR.Grad.Row(h)
			for d := 0; d < l.dh; d++ {
				dzr[h*l.dh+d] += gl*alr[d] + gr*arr[d]
				galr[d] += gl * zr[h*l.dh+d]
				garr[d] += gr * zr[h*l.dh+d]
			}
		}
	}
	tensor.MatMulTransA(l.W.Grad, l.x, dZ)
	if !needDX {
		return nil
	}
	l.dX = tensor.MatMulTransB(buf2(l.dX, dZ.Dim(0), l.W.Value.Dim(0)), dZ, l.W.Value)
	return l.dX
}
