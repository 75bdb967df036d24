package tensor

import (
	"fmt"

	"wisegraph/internal/parallel"
)

// GatherRows writes src[idx[i]] into dst row i: the indexing operation that
// moves embeddings from vertices to edges. dst must have len(idx) rows of
// src's row size (allocated if nil).
func GatherRows(dst, src *Tensor, idx []int32) *Tensor {
	rs := src.RowSize()
	if dst == nil {
		dst = New(len(idx), rs)
	}
	if dst.Rows() != len(idx) || dst.RowSize() != rs {
		panic(fmt.Sprintf("tensor: GatherRows dst %v, want [%d %d]", dst.Shape(), len(idx), rs))
	}
	parallel.For(len(idx), 64, func(i int) {
		copy(dst.data[i*rs:(i+1)*rs], src.data[int(idx[i])*rs:(int(idx[i])+1)*rs])
	})
	return dst
}

// ScatterAddRows accumulates src row i into dst[idx[i]]: the index-add
// reduction onto destination vertices. dst rows are updated sequentially
// per destination to stay deterministic; parallelism comes from a one-pass
// binning of the index positions by destination shard (see Bins), so no
// two workers touch the same row and nobody rescans the full edge list.
func ScatterAddRows(dst, src *Tensor, idx []int32) {
	rs := src.RowSize()
	if dst.RowSize() != rs {
		panic(fmt.Sprintf("tensor: ScatterAddRows row sizes %d vs %d", dst.RowSize(), rs))
	}
	n := dst.Rows()
	shards := scatterShards(n, len(idx))
	if shards <= 1 || len(idx) < 1024 {
		scatterAddSeq(dst.data, src.data, idx, rs)
		return
	}
	bins := binsPool.Get().(*Bins)
	BinRows(bins, idx, n, shards)
	ScatterAddRowsBinned(dst, src, idx, bins)
	binsPool.Put(bins)
}

// ScatterAddRowsBinned is ScatterAddRows with a caller-provided binning
// of idx (built by BinRows over dst's rows). A caller whose index array
// is stable across iterations can build the bins once and amortize the
// partition pass to zero.
func ScatterAddRowsBinned(dst, src *Tensor, idx []int32, bins *Bins) {
	rs := src.RowSize()
	if dst.RowSize() != rs {
		panic(fmt.Sprintf("tensor: ScatterAddRows row sizes %d vs %d", dst.RowSize(), rs))
	}
	if bins.Len() != len(idx) {
		panic(fmt.Sprintf("tensor: bins cover %d positions, index has %d", bins.Len(), len(idx)))
	}
	parallel.For(bins.NumShards(), 1, func(s int) {
		for _, i := range bins.Shard(s) {
			ix := int(idx[i])
			AddRow(dst.data[ix*rs:(ix+1)*rs], src.data[int(i)*rs:(int(i)+1)*rs])
		}
	})
}

// scatterAddSeq is the sequential reference scatter-add, also the small-
// input fast path.
func scatterAddSeq(dst, src []float32, idx []int32, rs int) {
	for i, ix := range idx {
		AddRow(dst[int(ix)*rs:(int(ix)+1)*rs], src[i*rs:(i+1)*rs])
	}
}

// Gather2D indexes a [R,C,*] tensor with paired row/col indices, writing
// src[ri[i], ci[i]] into dst row i. It implements the Index-2D operation
// produced by merging two indexing operations during indexing swapping.
func Gather2D(dst, src *Tensor, ri, ci []int32) *Tensor {
	if src.Dims() < 2 {
		panic(fmt.Sprintf("tensor: Gather2D needs ≥2-D source, got %v", src.Shape()))
	}
	if len(ri) != len(ci) {
		panic(fmt.Sprintf("tensor: Gather2D index lengths %d vs %d", len(ri), len(ci)))
	}
	r, c := src.Dim(0), src.Dim(1)
	if r == 0 || c == 0 {
		panic(fmt.Sprintf("tensor: Gather2D source %v has an empty leading dimension", src.Shape()))
	}
	inner := src.Len() / (r * c)
	if dst == nil {
		dst = New(len(ri), inner)
	}
	parallel.For(len(ri), 64, func(i int) {
		off := (int(ri[i])*c + int(ci[i])) * inner
		copy(dst.data[i*inner:(i+1)*inner], src.data[off:off+inner])
	})
	return dst
}

// CountsToOffsets converts per-segment counts into an offsets array of
// length len(counts)+1 (exclusive prefix sum).
func CountsToOffsets(counts []int32) []int32 {
	off := make([]int32, len(counts)+1)
	for i, c := range counts {
		off[i+1] = off[i] + c
	}
	return off
}
