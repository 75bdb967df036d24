package dist

import (
	"wisegraph/internal/nn"
	"wisegraph/internal/tensor"
)

// ShardColumns splits x [V, F] into per-device column shards [V, F/N]
// (tensor parallel layout: every device holds all rows, a slice of the
// embedding dimension — paper Figure 11b).
func (e *Engine) ShardColumns(x *tensor.Tensor) []*tensor.Tensor {
	n := e.C.N
	f := x.RowSize()
	out := make([]*tensor.Tensor, n)
	for d := 0; d < n; d++ {
		lo := d * f / n
		hi := (d + 1) * f / n
		t := tensor.New(x.Rows(), hi-lo)
		for r := 0; r < x.Rows(); r++ {
			copy(t.Row(r), x.Row(r)[lo:hi])
		}
		out[d] = t
	}
	return out
}

// GCNForwardTP runs one GCN layer tensor-parallel with the paper's
// Figure 11(d) placement: because aggregation reduces data volume at the
// vertex dimension, the index-add runs on all devices over their local
// column shards (no communication), then the weight transform's partial
// outputs are reduce-scattered so each device ends with its own block of
// complete output rows. Numerically identical to the data-parallel paths.
func (e *Engine) GCNForwardTP(layer *nn.GCNLayer, colParts []*tensor.Tensor) []*tensor.Tensor {
	n := e.C.N
	f := layer.InDim()
	fp := layer.OutDim()
	gc := nn.NewGraphCtx(e.G)

	// Phase 1 (local): aggregate each column shard over ALL vertices —
	// every device has every row of its columns, so no exchange.
	// Phase 2 (local): partial = agg_d × W[cols_d, :].
	partials := make([]*tensor.Tensor, n)
	perDevice(n, func(d int) {
		agg := tensor.New(e.G.NumVertices, colParts[d].RowSize())
		nn.EdgeSpMM(agg, colParts[d], gc.CSR.RowPtr, gc.SrcByDst, gc.InvDeg)
		lo := d * f / n
		hi := (d + 1) * f / n
		wSlice := tensor.New(hi-lo, fp)
		for r := lo; r < hi; r++ {
			copy(wSlice.Row(r-lo), layer.W.Value.Row(r))
		}
		partials[d] = tensor.MatMul(nil, agg, wSlice)
	})

	// Phase 3 (reduce-scatter): each device receives and sums the other
	// devices' partials for its block rows. Cross-device traffic:
	// (N-1) partial blocks of V/N × fp per destination.
	out := make([]*tensor.Tensor, n)
	perDevice(n, func(d int) {
		lo, hi := e.Block(d)
		rows := int(hi - lo)
		acc := tensor.New(rows, fp)
		var vol float64
		for p := 0; p < n; p++ {
			part := partials[p]
			for r := 0; r < rows; r++ {
				tensor.AddRow(acc.Row(r), part.Row(int(lo)+r))
			}
			if p != d {
				vol += float64(rows*fp) * 4
			}
		}
		tensor.AddBias(acc, layer.B.Value)
		out[d] = acc
		e.account(vol)
	})
	return out
}
