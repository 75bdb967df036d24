package tensor

import (
	"fmt"
	"sync"

	"wisegraph/internal/parallel"
)

// MatMul computes C = A × B for 2-D tensors A [M,K] and B [K,N], writing
// into dst [M,N] (allocated if nil) and returning it. The multiply is
// parallelized over row blocks; each output row is one mulAddRow call,
// which vectorizes over N and walks K in ascending order, skipping zero
// activations.
func MatMul(dst, a, b *Tensor) *Tensor {
	m, k, n := matmulDims("MatMul", a, b)
	dst = ensure(dst, m, n)
	matmulInto(dst.data, a.data, 1, nil, b.data, m, k, n, true, true)
	return dst
}

// MatMulAcc computes dst += A × B without zeroing dst first.
func MatMulAcc(dst, a, b *Tensor) *Tensor {
	m, k, n := matmulDims("MatMulAcc", a, b)
	dst = ensure(dst, m, n)
	matmulInto(dst.data, a.data, 1, nil, b.data, m, k, n, false, true)
	return dst
}

// MatMulRowsAcc computes dst[i] += A[rows[i]] × B for A [M,K], B [K,N]
// and dst [len(rows),N]: MatMulAcc over a gathered row set without
// materializing the gather. Every output row is the mulAddRow sequence
// MatMulAcc runs for the same A row, so row i is bitwise-equal to row
// rows[i] of the whole-matrix product.
func MatMulRowsAcc(dst, a *Tensor, rows []int32, b *Tensor) *Tensor {
	m, k, n := matmulDims("MatMulRowsAcc", a, b)
	for i, r := range rows {
		if r < 0 || int(r) >= m {
			panic(fmt.Sprintf("tensor: MatMulRowsAcc rows[%d] = %d outside [0,%d)", i, r, m))
		}
	}
	dst = ensure(dst, len(rows), n)
	matmulInto(dst.data, a.data, 1, rows, b.data, len(rows), k, n, false, true)
	return dst
}

// check2D panics unless both operands are matrices.
func check2D(op string, a, b *Tensor) {
	if a.Dims() != 2 || b.Dims() != 2 {
		panic(fmt.Sprintf("tensor: %s needs 2-D operands, got %v × %v", op, a.Shape(), b.Shape()))
	}
}

// matmulDims checks A [M,K] × B [K,N] and returns (M, K, N).
func matmulDims(op string, a, b *Tensor) (m, k, n int) {
	check2D(op, a, b)
	if a.Dim(1) != b.Dim(0) {
		panic(fmt.Sprintf("tensor: %s inner dimensions %d vs %d", op, a.Dim(1), b.Dim(0)))
	}
	return a.Dim(0), a.Dim(1), b.Dim(1)
}

// matmulPanel is the number of B elements kept hot per K-panel in the
// blocked path (≈256 KiB of float32, sized for a per-core L2 slice).
const matmulPanel = 1 << 16

// matmulStridedL1 is the L1 budget of one K-panel when A is read at a
// stride: the panel's B rows plus the 64-byte line each of its A elements
// sits on, which the next 15 output rows read again.
const matmulStridedL1 = 16 << 10

// matmulInto computes c (+)= a×b with b [k,n], c [m,n] flat. lda is the
// stride of A's elements along k: with lda == 1, A is a row-major [m,k]
// and row r starts at a[r*k]; otherwise A is the transpose of a row-major
// [k,lda] matrix, read in place, and row r starts at a[r]. With rows
// non-nil, output row i reads A's row rows[i] instead of row i. skipZero
// is mulAddRow's: terms with a zero A element are not added.
//
// When B exceeds the panel budget the K dimension is processed in
// cache-blocked panels: each panel of B rows is swept across a block of
// output rows before moving on, so B streams through cache once per row
// block instead of once per output row. A strided A always runs in
// L1-sized panels over blocks of at least 16 rows, so the lines its
// elements sit on are fetched once per block. Blocking only re-orders the
// (i, panel) iteration — within one output element the k-summation order
// is unchanged, so results are bitwise identical to the unblocked loop.
func matmulInto(c, a []float32, lda int, rows []int32, b []float32, m, k, n int, zero, skipZero bool) {
	grain := 1
	if m > 0 {
		// target ~64k multiply-adds per task
		grain = 1 + 65536/(k*n+1)
	}
	kc := k // K-panel height; k means unblocked
	switch {
	case lda != 1:
		kc = max(8, matmulStridedL1/(4*n+64))
		grain = max(grain, 16)
	case k*n > matmulPanel && n > 0:
		kc = max(8, matmulPanel/n)
		grain = max(grain, 16) // row blocks large enough to amortize panel sweeps
	}
	parallel.ForRange(m, grain, func(lo, hi int) {
		if zero {
			clear(c[lo*n : hi*n])
		}
		for p0 := 0; p0 < k; p0 += kc {
			p1 := min(p0+kc, k)
			for i := lo; i < hi; i++ {
				r := i
				if rows != nil {
					r = int(rows[i])
				}
				if lda == 1 {
					mulAddRow(c[i*n:(i+1)*n], a[r*k:(r+1)*k], 1, b, p0, p1, n, skipZero)
				} else {
					mulAddRow(c[i*n:(i+1)*n], a[r:], lda, b, p0, p1, n, skipZero)
				}
			}
		}
	})
}

// transposePool recycles the transposed B panels of MatMulTransB. The
// same *[]float32 travels Get → Put, so a call allocates nothing once the
// panel has grown to size.
var transposePool = sync.Pool{New: func() any { return new([]float32) }}

// transposed returns a pooled copy of the [m,n] matrix src laid out as
// [n,m]; hand the pointer back to transposePool when done.
func transposed(src []float32, m, n int) *[]float32 {
	p := transposePool.Get().(*[]float32)
	if cap(*p) < m*n {
		*p = make([]float32, m*n)
	}
	*p = (*p)[:m*n]
	transposeInto(*p, src, m, n)
	return p
}

// MatMulTransB computes C = A × Bᵀ for A [M,K], B [N,K] into dst [M,N].
// Each C[i,j] is a dot product summed in p order from +0. Vector lanes
// along p would re-associate that sum, so B is transposed into a pooled
// [K,N] panel and the row kernel vectorizes over j instead, leaving every
// element's p order intact. No zero-skip here: the dot loop this replaces
// added 0·b terms, and 0·Inf must still produce NaN.
func MatMulTransB(dst, a, b *Tensor) *Tensor {
	check2D("MatMulTransB", a, b)
	m, k := a.Dim(0), a.Dim(1)
	n, k2 := b.Dim(0), b.Dim(1)
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulTransB inner dimensions %d vs %d", k, k2))
	}
	dst = ensure(dst, m, n)
	bt := transposed(b.data, n, k)
	matmulInto(dst.data, a.data, 1, nil, *bt, m, k, n, true, false)
	transposePool.Put(bt)
	return dst
}

// MatMulTransA computes dst += Aᵀ × B for A [K,M], B [K,N] and dst [M,N]
// (a new zero matrix if nil): a weight gradient (Xᵀ·dY) accumulated
// straight into the gradient. Output row i reads column i of A in place,
// M elements apart; the k order and the zero-skip are MatMulAcc's over a
// transposed copy, so the result is that call's bit for bit.
func MatMulTransA(dst, a, b *Tensor) *Tensor {
	check2D("MatMulTransA", a, b)
	k, m := a.Dim(0), a.Dim(1)
	k2, n := b.Dim(0), b.Dim(1)
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulTransA leading dimensions %d vs %d", k, k2))
	}
	dst = ensure(dst, m, n)
	matmulInto(dst.data, a.data, m, nil, b.data, m, k, n, false, true)
	return dst
}

// VecMat computes y = x × B for x [K] (or [1,K]) and B [K,N] into dst [N]:
// a one-row product that tests use as an oracle.
func VecMat(dst []float32, x []float32, b *Tensor) {
	checkVecMat(dst, x, b)
	clear(dst)
	mulAddRow(dst, x, 1, b.data, 0, len(x), len(dst), true)
}

// BatchedMatMul computes C[i] = A[i] × B[i] for A [B,M,K], B [B,K,N] into
// dst [B,M,N]. Batches are independent and run in parallel.
func BatchedMatMul(dst, a, b *Tensor) *Tensor {
	if a.Dims() != 3 || b.Dims() != 3 || a.Dim(0) != b.Dim(0) || a.Dim(2) != b.Dim(1) {
		panic(fmt.Sprintf("tensor: BatchedMatMul shapes %v × %v", a.Shape(), b.Shape()))
	}
	bs, m, k := a.Dim(0), a.Dim(1), a.Dim(2)
	n := b.Dim(2)
	if dst == nil {
		dst = New(bs, m, n)
	} else if dst.Dims() != 3 || dst.Dim(0) != bs || dst.Dim(1) != m || dst.Dim(2) != n {
		panic(fmt.Sprintf("tensor: destination shape %v, want [%d %d %d]", dst.Shape(), bs, m, n))
	}
	parallel.For(bs, 1, func(i int) {
		as := a.data[i*m*k : (i+1)*m*k]
		bsl := b.data[i*k*n : (i+1)*k*n]
		cs := dst.data[i*m*n : (i+1)*m*n]
		clear(cs)
		for r := 0; r < m; r++ {
			mulAddRow(cs[r*n:(r+1)*n], as[r*k:(r+1)*k], 1, bsl, 0, k, n, true)
		}
	})
	return dst
}

// transposeInto writes the [m,n] matrix src into dst as [n,m]. Weight-
// sized matrices are transposed inline: handing them to the pool costs
// more (a closure and a job per call) than the copy itself.
func transposeInto(dst, src []float32, m, n int) {
	if m*n <= matmulPanel {
		transposeRows(dst, src, m, n, 0, m)
		return
	}
	parallel.ForRange(m, 64, func(lo, hi int) { transposeRows(dst, src, m, n, lo, hi) })
}

func transposeRows(dst, src []float32, m, n, lo, hi int) {
	for i := lo; i < hi; i++ {
		for j := 0; j < n; j++ {
			dst[j*m+i] = src[i*n+j]
		}
	}
}

// ensure returns dst if it already has the given 2-D shape, else a new
// tensor. Panics if dst is non-nil with the wrong shape, which catches
// buffer-reuse bugs early.
func ensure(dst *Tensor, m, n int) *Tensor {
	if dst == nil {
		return New(m, n)
	}
	if dst.Dims() != 2 || dst.Dim(0) != m || dst.Dim(1) != n {
		panic(fmt.Sprintf("tensor: destination shape %v, want [%d %d]", dst.Shape(), m, n))
	}
	return dst
}
