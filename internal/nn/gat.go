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
	x, z   *tensor.Tensor
	pl, pr *tensor.Tensor // [V, heads] projections
	scores *tensor.Tensor // [E, heads] pre-activation
	alpha  *tensor.Tensor // [E, heads] attention weights
	out    *tensor.Tensor
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

// Heads returns the head count.
func (l *GATLayer) Heads() int { return l.heads }

// project computes p[v,h] = Σ_d a[h,d]·Z[v,h*dh+d] into the sticky
// buffer dst (reallocated on shape change).
func (l *GATLayer) project(dst, z *tensor.Tensor, a *Param) *tensor.Tensor {
	v := z.Rows()
	p := buf2(dst, v, l.heads)
	parallel.For(v, 64, func(i int) {
		zr := z.Row(i)
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
	l.x = x
	l.z = tensor.MatMul(buf2(l.z, x.Dim(0), l.OutDim()), x, l.W.Value)
	l.pl = l.project(l.pl, l.z, l.AL)
	l.pr = l.project(l.pr, l.z, l.AR)
	e := gc.NumEdges()
	l.scores = buf2(l.scores, e, l.heads)
	for s := 0; s < e; s++ {
		sr := l.scores.Row(s)
		plr := l.pl.Row(int(gc.SrcByDst[s]))
		prr := l.pr.Row(int(gc.DstByDst[s]))
		for h := 0; h < l.heads; h++ {
			sr[h] = plr[h] + prr[h]
		}
	}
	// LeakyReLU then per-(dst, head) softmax over CSR segments.
	l.alpha = tensor.LeakyReLU(buf2(l.alpha, e, l.heads), l.scores, l.slope)
	l.segmentSoftmaxByHead(gc, l.alpha)

	out := buf2(l.out, gc.NumVertices(), l.OutDim())
	l.out = out
	out.Zero()
	parallel.For(gc.NumVertices(), 16, func(v int) {
		orow := out.Row(v)
		for s := gc.CSR.RowPtr[v]; s < gc.CSR.RowPtr[v+1]; s++ {
			zr := l.z.Row(int(gc.SrcByDst[s]))
			ar := l.alpha.Row(int(s))
			for h := 0; h < l.heads; h++ {
				tensor.AxpyRow(orow[h*l.dh:(h+1)*l.dh], ar[h], zr[h*l.dh:(h+1)*l.dh])
			}
		}
	})
	tensor.AddBias(out, l.B.Value)
	return out
}

// segmentSoftmaxByHead normalizes vals [E, heads] per destination segment
// and head, in place.
func (l *GATLayer) segmentSoftmaxByHead(gc *GraphCtx, vals *tensor.Tensor) {
	parallel.For(gc.NumVertices(), 16, func(v int) {
		lo, hi := int(gc.CSR.RowPtr[v]), int(gc.CSR.RowPtr[v+1])
		if lo >= hi {
			return
		}
		for h := 0; h < l.heads; h++ {
			maxv := vals.At(lo, h)
			for s := lo + 1; s < hi; s++ {
				if x := vals.At(s, h); x > maxv {
					maxv = x
				}
			}
			var sum float64
			for s := lo; s < hi; s++ {
				ev := math.Exp(float64(vals.At(s, h) - maxv))
				vals.Set(float32(ev), s, h)
				sum += ev
			}
			inv := float32(1 / sum)
			for s := lo; s < hi; s++ {
				vals.Set(vals.At(s, h)*inv, s, h)
			}
		}
	})
}

// Backward implements Layer.
func (l *GATLayer) Backward(gc *GraphCtx, dOut *tensor.Tensor, needDX bool) *tensor.Tensor {
	accumBiasGrad(l.B.Grad, dOut)
	e := gc.NumEdges()
	dZ := buf2(l.dZ, l.z.Dim(0), l.z.Dim(1))
	l.dZ = dZ
	dZ.Zero()
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
	dpl := buf2(l.dpl, l.pl.Dim(0), l.pl.Dim(1))
	l.dpl = dpl
	dpl.Zero()
	dpr := buf2(l.dpr, l.pr.Dim(0), l.pr.Dim(1))
	l.dpr = dpr
	dpr.Zero()
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
