package nn

import "wisegraph/internal/tensor"

// Sticky-buffer helpers. Layers keep their intermediates (XW, aggregates,
// gradients) as fields and re-request them every iteration through these
// helpers: when the shape is unchanged — always, in steady-state training —
// the same tensor comes back, so the hot loop allocates nothing. On a shape
// change (e.g. a differently sized sampled subgraph) the old buffer is
// recycled into the tensor pool and a pooled replacement is drawn.
//
// Reused buffers keep last iteration's values: callers that accumulate
// into a fresh sum (EdgeSpMM into zeros, scatter loops) take zbuf2, which
// clears a reused buffer only — a pooled one comes zero-filled; callers
// that overwrite (MatMul, MatMulTransB, ReLU) need not.

// buf2 returns t when it already has shape [m, n], else a pooled tensor of
// that shape (recycling t).
func buf2(t *tensor.Tensor, m, n int) *tensor.Tensor {
	if t != nil && t.Dims() == 2 && t.Dim(0) == m && t.Dim(1) == n {
		return t
	}
	tensor.Put(t)
	return tensor.Get(m, n)
}

// zbuf2 is buf2 holding zeros: a reused buffer is cleared, and a pooled
// one is already zero-filled by tensor.Get.
func zbuf2(t *tensor.Tensor, m, n int) *tensor.Tensor {
	out := buf2(t, m, n)
	if out == t {
		out.Zero()
	}
	return out
}

// selfTransform computes x·w for gc's destination rows into buf: the whole
// product when they are every vertex, else the product of x's rows gc.Rows
// (tensor.MatMulRowsAcc, row for row the same bits).
func selfTransform(buf *tensor.Tensor, gc *GraphCtx, x, w *tensor.Tensor) *tensor.Tensor {
	if gc.Rows == nil {
		return tensor.MatMul(buf2(buf, gc.NumRows(), w.Dim(1)), x, w)
	}
	return tensor.MatMulRowsAcc(zbuf2(buf, gc.NumRows(), w.Dim(1)), x, gc.Rows, w)
}

// bufLike returns t when it already has ref's shape, else a pooled tensor
// of that shape (recycling t).
func bufLike(t, ref *tensor.Tensor) *tensor.Tensor {
	if t != nil && t.SameShape(ref) {
		return t
	}
	tensor.Put(t)
	return tensor.Get(ref.Shape()...)
}
