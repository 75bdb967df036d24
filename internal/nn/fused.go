package nn

import (
	"fmt"

	"wisegraph/internal/parallel"
	"wisegraph/internal/tensor"
)

// Fused execution (Exec == ExecFused). The layers' sparse aggregations are
// restructured from "zero → per-edge scatter-add → bias pass" into one
// streaming pass per output row: the row's CSR segment is walked once,
// source rows are gathered and multiplied straight into the destination
// row, and the bias is folded into the same pass. No per-edge [E,F]
// intermediate is materialized and every operand crosses memory once.
//
// Bitwise parity with the blocked path is a hard invariant, kept by
// construction: each output element still receives exactly the additions
// 0 (+ c_s ascending by CSR slot) + bias, in that order, and each row is
// owned by exactly one worker, so results are identical for every worker
// count. The parity suite (fused_test.go, kernels/engine_test.go) checks
// this bit for bit across models, plans and worker counts.

// fusedSegSpMM streams out[r] (+)= Σ_s w[s]·x[col[s]] + bias over each
// row's index segment ptr[r]..ptr[r+1]. With slots == nil the segment
// positions are the slot ids themselves (forward: CSR by destination);
// otherwise slots maps positions to CSR slot ids (backward: the BySrc
// transpose). accum keeps the existing row contents (used when a dense
// term was already written); otherwise the row starts at zero, matching
// the blocked Zero → EdgeSpMM order. A nil bias skips the bias fold.
func fusedSegSpMM(out, x *tensor.Tensor, ptr, slots, col []int32, w []float32, bias *tensor.Tensor, accum bool) {
	rs := x.RowSize()
	if out.RowSize() != rs {
		panic(fmt.Sprintf("nn: fusedSegSpMM row sizes %d vs %d", out.RowSize(), rs))
	}
	var b []float32
	if bias != nil {
		b = bias.Data()
	}
	parallel.For(out.Rows(), 16, func(r int) {
		or := out.Row(r)
		if !accum {
			for j := range or {
				or[j] = 0
			}
		}
		for k := ptr[r]; k < ptr[r+1]; k++ {
			s := k
			if slots != nil {
				s = slots[k]
			}
			tensor.AxpyRow(or, w[s], x.Row(int(col[s])))
		}
		for j := range b {
			or[j] += b[j]
		}
	})
}

// fusedSAGEForward fuses SAGE's aggregate → transform → bias chain per
// destination row: the neighbor mean is accumulated into agg's row (the
// backward pass still needs it), immediately pushed through Wneigh into
// the output row — which already holds the x·Wself term — and the bias is
// folded in, all in one pass over the row's CSR segment.
func fusedSAGEForward(out, agg, x *tensor.Tensor, gc *GraphCtx, wNeigh, bias *tensor.Tensor) {
	b := bias.Data()
	parallel.For(out.Rows(), 16, func(v int) {
		ar := agg.Row(v)
		for j := range ar {
			ar[j] = 0
		}
		for s := gc.CSR.RowPtr[v]; s < gc.CSR.RowPtr[v+1]; s++ {
			tensor.AxpyRow(ar, gc.InvDeg[s], x.Row(int(gc.SrcByDst[s])))
		}
		or := out.Row(v)
		tensor.VecMatAcc(or, ar, wNeigh)
		for j := range or {
			or[j] += b[j]
		}
	})
}

// fusedRGCNType streams one relation's edges straight from x into the
// output rows — no [Et,in] gather and no [Et,out] message buffer. Within a
// relation each destination's edges form one contiguous run (filtering the
// dst-sorted CSR by type preserves contiguity), so parallelism is by run
// ownership: the worker whose range contains a run's first edge processes
// the whole run, keeping the per-row accumulation order identical at every
// worker count.
func fusedRGCNType(out, x *tensor.Tensor, te *TypeEdges, w *tensor.Tensor) {
	n := len(te.Src)
	outDim := out.Dim(1)
	parallel.ForRange(n, 256, func(lo, hi int) {
		msg := make([]float32, outDim)
		i := lo
		for i < hi && i > 0 && te.Dst[i] == te.Dst[i-1] {
			i++ // skip a run started inside the previous worker's range
		}
		for i < hi {
			d := te.Dst[i]
			j := i + 1
			for j < n && te.Dst[j] == d {
				j++ // a run crossing hi still belongs to this worker
			}
			or := out.Row(int(d))
			for k := i; k < j; k++ {
				tensor.VecMat(msg, x.Row(int(te.Src[k])), w)
				tensor.AxpyRow(or, te.W[k], msg)
			}
			i = j
		}
	})
}
