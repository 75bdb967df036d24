package nn

import (
	"wisegraph/internal/tensor"
)

// RGCNLayer implements relational GCN (paper Equation 1):
//
//	h'[dst] += mean-norm · (h[src] × W[edge-type]) , plus a self weight:
//	h' = h·Wself + Σ_e norm_e · h[src_e]·W[type_e] + b
//
// Its per-edge MLP is the paper's canonical complex neural operation.
type RGCNLayer struct {
	WSelf *Param
	// W holds one in×out weight per relation, shape [T, in, out].
	W *Param
	B *Param

	numTypes int
	x        *tensor.Tensor
	gathered []*tensor.Tensor // per-type gathered inputs (pooled; released in Backward)

	// sticky buffers (see bufs.go)
	out, dx *tensor.Tensor
}

// NewRGCNLayer allocates a layer with numTypes relations mapping in → out.
func NewRGCNLayer(rng *tensor.RNG, numTypes, in, out int) *RGCNLayer {
	return &RGCNLayer{
		WSelf:    NewParam("rgcn.Wself", rng, in, out),
		W:        NewParam("rgcn.W", rng, numTypes, in, out),
		B:        NewZeroParam("rgcn.b", out),
		numTypes: numTypes,
	}
}

// Params implements Layer.
func (l *RGCNLayer) Params() []*Param { return []*Param{l.WSelf, l.W, l.B} }

// InDim implements Layer.
func (l *RGCNLayer) InDim() int { return l.WSelf.Value.Dim(0) }

// OutDim implements Layer.
func (l *RGCNLayer) OutDim() int { return l.WSelf.Value.Dim(1) }

// typeWeight returns W[t] as a 2-D view.
func (l *RGCNLayer) typeWeight(t int) *tensor.Tensor {
	in, out := l.InDim(), l.OutDim()
	return tensor.FromSlice(l.W.Value.Data()[t*in*out:(t+1)*in*out], in, out)
}

func (l *RGCNLayer) typeWeightGrad(t int) *tensor.Tensor {
	in, out := l.InDim(), l.OutDim()
	return tensor.FromSlice(l.W.Grad.Data()[t*in*out:(t+1)*in*out], in, out)
}

// Forward implements Layer.
func (l *RGCNLayer) Forward(gc *GraphCtx, x *tensor.Tensor) *tensor.Tensor {
	gc.mustAllRows()
	l.x = x
	if len(l.gathered) != l.numTypes {
		l.gathered = make([]*tensor.Tensor, l.numTypes)
	}
	l.out = l.forward(gc, x, l.out, l.gathered)
	return l.out
}

// Infer implements Layer.
func (l *RGCNLayer) Infer(gc *GraphCtx, x *tensor.Tensor) *tensor.Tensor {
	return l.forward(gc, x, nil, nil)
}

// forward is the layer's one body over gc's destination rows, into out.
// Edges are processed grouped by relation so each group's messages are
// one dense [Et, in] × [in, out] matmul — the "relation-batched"
// execution — and then added into their destinations in slot order, so
// every destination sums its in-edges in gc's order. gathered, when
// non-nil, keeps each relation's gathered source rows for Backward;
// otherwise they go back to the pool.
func (l *RGCNLayer) forward(gc *GraphCtx, x, out *tensor.Tensor, gathered []*tensor.Tensor) *tensor.Tensor {
	e, in, fo := gc.NumEdges(), l.InDim(), l.OutDim()
	if gc.TypeOffsets == nil && e > 0 {
		panic("nn: RGCN requires a typed graph")
	}
	out = selfTransform(out, gc, x, l.WSelf.Value)
	if e > 0 {
		// msg row i is the message of slot TypeOrder[i].
		msg := tensor.Get(e, fo)
		defer tensor.Put(msg)
		for t := 0; t < l.numTypes; t++ {
			lo, hi := int(gc.TypeOffsets[t]), int(gc.TypeOffsets[t+1])
			if lo == hi {
				continue
			}
			xt := tensor.Get(hi-lo, in)
			for i, s := range gc.TypeOrder[lo:hi] {
				copy(xt.Row(i), x.Row(int(gc.SrcByDst[s])))
			}
			tensor.MatMulAcc(tensor.FromSlice(msg.Data()[lo*fo:hi*fo], hi-lo, fo), xt, l.typeWeight(t))
			if gathered != nil {
				gathered[t] = xt
			} else {
				tensor.Put(xt)
			}
		}
		// scatter with normalization: out[dst] += w · msg
		EdgeSpMM(out, msg, gc.CSR.RowPtr, gc.TypePos, gc.InvDeg)
	}
	tensor.AddBias(out, l.B.Value)
	return out
}

// Backward implements Layer.
func (l *RGCNLayer) Backward(gc *GraphCtx, dOut *tensor.Tensor, needDX bool) *tensor.Tensor {
	accumBiasGrad(l.B.Grad, dOut)
	tensor.MatMulTransA(l.WSelf.Grad, l.x, dOut)
	var dx *tensor.Tensor
	if needDX {
		l.dx = tensor.MatMulTransB(buf2(l.dx, dOut.Dim(0), l.WSelf.Value.Dim(0)), dOut, l.WSelf.Value)
		dx = l.dx
	}
	for t := 0; t < l.numTypes; t++ {
		// Relation t's slots, in the order forward gathered them.
		slots := gc.TypeOrder[gc.TypeOffsets[t]:gc.TypeOffsets[t+1]]
		if len(slots) == 0 {
			continue
		}
		// dMsg[i] = w_i · dOut[dst_i]
		dMsg := tensor.Get(len(slots), l.OutDim())
		for i, s := range slots {
			drow := dOut.Row(int(gc.DstByDst[s]))
			mrow := dMsg.Row(i)
			we := gc.InvDeg[s]
			for j, v := range drow {
				mrow[j] = we * v
			}
		}
		// dW[t] += xtᵀ · dMsg ; dX[src] += dMsg · W[t]ᵀ
		xt := l.gathered[t]
		tensor.MatMulTransA(l.typeWeightGrad(t), xt, dMsg)
		if needDX {
			dXt := tensor.MatMulTransB(tensor.Get(len(slots), l.InDim()), dMsg, l.typeWeight(t))
			for i, s := range slots {
				tensor.AddRow(dx.Row(int(gc.SrcByDst[s])), dXt.Row(i))
			}
			tensor.Put(dXt)
		}
		tensor.Put(dMsg)
		tensor.Put(xt)
		l.gathered[t] = nil
	}
	return dx
}
