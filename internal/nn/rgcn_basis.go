package nn

import (
	"wisegraph/internal/tensor"
)

// RGCNBasisLayer is RGCN with basis decomposition (Schlichtkrull et al.,
// the regularization the original paper uses for many relations):
//
//	W[t] = Σ_b comb[t,b] · V[b]
//
// so the per-relation weights share B basis matrices. This is the
// extension variant of RGCNLayer: same graph computation, fewer
// parameters, with gradients flowing through the combination.
type RGCNBasisLayer struct {
	WSelf *Param
	// Basis holds B shared matrices, shape [B, in, out].
	Basis *Param
	// Comb holds per-relation combination coefficients, shape [T, B].
	Comb *Param
	B    *Param

	numTypes, bases int

	x        *tensor.Tensor
	weights  *tensor.Tensor   // materialized W[t], cached for backward
	gathered []*tensor.Tensor // per-type gathered inputs
}

// NewRGCNBasisLayer allocates a layer with numTypes relations sharing
// bases basis matrices.
func NewRGCNBasisLayer(rng *tensor.RNG, numTypes, bases, in, out int) *RGCNBasisLayer {
	if bases < 1 || bases > numTypes {
		bases = min(max(bases, 1), numTypes)
	}
	return &RGCNBasisLayer{
		WSelf:    NewParam("rgcnb.Wself", rng, in, out),
		Basis:    NewParam("rgcnb.V", rng, bases, in, out),
		Comb:     NewParam("rgcnb.comb", rng, numTypes, bases),
		B:        NewZeroParam("rgcnb.b", out),
		numTypes: numTypes,
		bases:    bases,
	}
}

// Params implements Layer.
func (l *RGCNBasisLayer) Params() []*Param {
	return []*Param{l.WSelf, l.Basis, l.Comb, l.B}
}

// InDim implements Layer.
func (l *RGCNBasisLayer) InDim() int { return l.WSelf.Value.Dim(0) }

// OutDim implements Layer.
func (l *RGCNBasisLayer) OutDim() int { return l.WSelf.Value.Dim(1) }

// Bases returns the basis count.
func (l *RGCNBasisLayer) Bases() int { return l.bases }

// materializeWeights computes W[t] = Σ_b comb[t,b]·V[b] as a [T, in*out]
// matmul over the flattened bases.
func (l *RGCNBasisLayer) materializeWeights() *tensor.Tensor {
	in, out := l.InDim(), l.OutDim()
	flatBasis := l.Basis.Value.Reshape(l.bases, in*out)
	return tensor.MatMul(nil, l.Comb.Value, flatBasis) // [T, in*out]
}

// Forward implements Layer (same relation-grouped execution as RGCNLayer,
// over materialized weights).
func (l *RGCNBasisLayer) Forward(gc *GraphCtx, x *tensor.Tensor) *tensor.Tensor {
	if gc.TypeOffsets == nil {
		panic("nn: RGCN-basis requires a typed graph")
	}
	l.x = x
	l.weights = l.materializeWeights()
	l.gathered = make([]*tensor.Tensor, l.numTypes)
	in, out := l.InDim(), l.OutDim()
	res := tensor.MatMul(nil, x, l.WSelf.Value)
	for t := 0; t < l.numTypes; t++ {
		slots := typeEdges(gc, t)
		if len(slots) == 0 {
			continue
		}
		src := make([]int32, len(slots))
		for i, s := range slots {
			src[i] = gc.SrcByDst[s]
		}
		xt := tensor.GatherRows(nil, x, src)
		l.gathered[t] = xt
		wt := tensor.FromSlice(l.weights.Row(t), in, out)
		msg := tensor.MatMul(nil, xt, wt)
		for i, s := range slots {
			tensor.AxpyRow(res.Row(int(gc.DstByDst[s])), gc.InvDeg[s], msg.Row(i))
		}
	}
	tensor.AddBias(res, l.B.Value)
	return res
}

// Backward implements Layer.
func (l *RGCNBasisLayer) Backward(gc *GraphCtx, dOut *tensor.Tensor) *tensor.Tensor {
	accumBiasGrad(l.B.Grad, dOut)
	tensor.MatMulAcc(l.WSelf.Grad, transposeOf(l.x), dOut)
	dx := tensor.MatMulTransB(nil, dOut, l.WSelf.Value)
	in, out := l.InDim(), l.OutDim()
	// per-relation weight gradients, then project into basis/comb space
	dW := tensor.New(l.numTypes, in*out)
	for t := 0; t < l.numTypes; t++ {
		slots := typeEdges(gc, t)
		if len(slots) == 0 {
			continue
		}
		dMsg := tensor.New(len(slots), out)
		for i, s := range slots {
			drow := dOut.Row(int(gc.DstByDst[s]))
			mrow := dMsg.Row(i)
			we := gc.InvDeg[s]
			for j, v := range drow {
				mrow[j] = we * v
			}
		}
		xt := l.gathered[t]
		dWt := tensor.MatMulTransA(nil, xt, dMsg) // [in, out]
		copy(dW.Row(t), dWt.Data())
		wt := tensor.FromSlice(l.weights.Row(t), in, out)
		dXt := tensor.MatMulTransB(nil, dMsg, wt)
		for i, s := range slots {
			tensor.AddRow(dx.Row(int(gc.SrcByDst[s])), dXt.Row(i))
		}
	}
	// W = comb · flatBasis ⇒ dComb += dW · flatBasisᵀ ; dBasis += combᵀ · dW
	flatBasis := l.Basis.Value.Reshape(l.bases, in*out)
	tensor.MatMulAcc(l.Comb.Grad, dW, tensor.Transpose2D(nil, flatBasis))
	dBasis := tensor.MatMulTransA(nil, l.Comb.Value, dW) // [bases, in*out]
	tensor.AXPY(l.Basis.Grad.Reshape(l.bases, in*out), 1, dBasis)
	return dx
}
