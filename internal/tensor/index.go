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
// reduction onto destination vertices, in ascending i, so each destination
// row sums its contributions in index order.
func ScatterAddRows(dst, src *Tensor, idx []int32) {
	rs := src.RowSize()
	if dst.RowSize() != rs {
		panic(fmt.Sprintf("tensor: ScatterAddRows row sizes %d vs %d", dst.RowSize(), rs))
	}
	for i, ix := range idx {
		AddRow(dst.data[int(ix)*rs:(int(ix)+1)*rs], src.data[i*rs:(i+1)*rs])
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
