package tensor

import "fmt"

// The one vector kernel. Every dense and aggregation loop in the repo is
// some arrangement of dst[j] += a*x[j] over a float32 row; AxpyRow is
// that statement, mulAddRow is the matmul row built on it and AccumRun
// the aggregation run. On amd64 they run in assembly (kernel_amd64.s):
// AxpyRow on AVX2, mulAddRow and AccumRun on AVX-512 where the CPU has it
// and on AVX2 otherwise. Everywhere else they run the generic loops
// below, which are also the test oracle. The paths
// are bitwise-equal: one rounding for the multiply, one for the add, no
// fused multiply-add on any platform (see axpyGeneric).

// AxpyRow computes dst[j] += a*x[j] for every j < len(x). It never skips
// a == 0: 0·Inf must still poison dst and a -0 in dst must still become
// +0, as in the scalar loop it replaces.
func AxpyRow(dst []float32, a float32, x []float32) {
	if len(dst) < len(x) {
		panic(fmt.Sprintf("tensor: AxpyRow dst[%d] shorter than x[%d]", len(dst), len(x)))
	}
	if useAVX2 {
		axpyAVX2(dst, a, x)
		return
	}
	axpyGeneric(dst, a, x)
}

// AddRow computes dst[j] += x[j] for every j < len(x). 1·x is exact for
// every float32, so this is AxpyRow with a == 1 bit for bit.
func AddRow(dst, x []float32) { AxpyRow(dst, 1, x) }

// AccumRun computes dst[j] += Σᵢ w[i]·x[idx[i]·rs + j] for every j < rs,
// i ascending: one destination row's run of in-edges over the row-major
// source matrix x of row width rs. Each term is the AxpyRow statement, so
// the result is one AxpyRow(dst, w[i], row idx[i]) per i, bit for bit;
// the assembly kernels hold dst in registers across the run and store it
// once. Every idx[i] must be a row of x, and w must be at least as long
// as idx.
func AccumRun(dst, x []float32, rs int, idx []int32, w []float32) {
	if rs < 0 || len(dst) < rs || len(w) < len(idx) {
		panic(fmt.Sprintf("tensor: AccumRun dst[%d] row %d with %d weights for %d sources", len(dst), rs, len(w), len(idx)))
	}
	if rs == 0 || len(idx) == 0 {
		return
	}
	rows := len(x) / rs
	for _, s := range idx {
		if uint(s) >= uint(rows) {
			panic(fmt.Sprintf("tensor: AccumRun source row %d outside x's %d rows", s, rows))
		}
	}
	switch {
	case useAVX512:
		accumRunAVX512(dst, x, rs, idx, w)
	case useAVX2:
		accumRunAVX2(dst, x, rs, idx, w)
	default:
		accumRunGeneric(dst, x, rs, idx, w)
	}
}

// VecMatAcc accumulates dst += x × B for a row vector x [K] and B [K,N],
// walking k in ascending order and skipping zero activations — the
// element-order contract of one MatMulAcc output row, so a per-row call
// is bitwise-identical to the whole-matrix call.
func VecMatAcc(dst, x []float32, b *Tensor) {
	checkVecMat(dst, x, b)
	mulAddRow(dst, x, 1, b.data, 0, len(x), len(dst), true)
}

// checkVecMat panics unless x [K] × B [K,N] fits dst [N]; VecMat runs it
// before it zeroes dst, so a mis-shaped call leaves the caller's buffer alone.
func checkVecMat(dst, x []float32, b *Tensor) {
	if b.Dims() != 2 || len(x) != b.Dim(0) || len(dst) != b.Dim(1) {
		panic(fmt.Sprintf("tensor: VecMat shapes x[%d] B%v dst[%d]", len(x), b.Shape(), len(dst)))
	}
}

// mulAddRow computes ci[j] += Σ_p ai[p*lda]·b[p*n+j] over p in [p0,p1)
// for one output row, p ascending for every j. lda is the stride of the
// row's A elements: 1 for a row of a row-major A, the row width of A for
// a column read in place (MatMulTransA). With skipZero, terms whose A
// element is ±0 are not added at all (MatMul's sparse-activation
// contract). The kernel is the widest the CPU runs: AVX-512 (one kernel
// for every stride), then AVX2, then the generic loop. The slice lengths
// are asserted here so that no caller can hand the assembly kernel a
// short row.
func mulAddRow(ci, ai []float32, lda int, b []float32, p0, p1, n int, skipZero bool) {
	if p0 < 0 || n < 0 || lda < 1 || len(ci) < n || len(ai) <= (p1-1)*lda || len(b) < p1*n {
		panic(fmt.Sprintf("tensor: mulAddRow c[%d] a[%d] stride %d b[%d] for p in [%d,%d), n=%d", len(ci), len(ai), lda, len(b), p0, p1, n))
	}
	switch {
	case useAVX512:
		mulAddRowStridedAVX512(ci, ai, lda, b, p0, p1, n, skipZero)
	case !useAVX2:
		mulAddRowGeneric(ci, ai, lda, b, p0, p1, n, skipZero)
	case lda == 1:
		mulAddRowAVX2(ci, ai, b, p0, p1, n, skipZero)
	default:
		mulAddRowStridedAVX2(ci, ai, lda, b, p0, p1, n, skipZero)
	}
}

// reluRow computes dst[j] = max(x[j], 0) for every j < len(x), without a
// branch per element: activations change sign at random, which a
// predictor cannot learn. NaN and -0 both give +0, as in the scalar test
// it replaces (reluGeneric).
func reluRow(dst, x []float32) {
	if len(dst) < len(x) {
		panic(fmt.Sprintf("tensor: reluRow dst[%d] shorter than x[%d]", len(dst), len(x)))
	}
	if useAVX2 {
		reluAVX2(dst, x)
		return
	}
	reluGeneric(dst, x)
}

// reluGradRow computes dst[j] = grad[j] where a[j] > 0, else +0, for every
// j < len(a).
func reluGradRow(dst, grad, a []float32) {
	if len(dst) < len(a) || len(grad) < len(a) {
		panic(fmt.Sprintf("tensor: reluGradRow dst[%d] grad[%d] shorter than a[%d]", len(dst), len(grad), len(a)))
	}
	if useAVX2 {
		reluGradAVX2(dst, grad, a)
		return
	}
	reluGradGeneric(dst, grad, a)
}

// reluGeneric is the portable ReLU row and the oracle for the assembly.
func reluGeneric(dst, x []float32) {
	dst = dst[:len(x)]
	for j, v := range x {
		if v > 0 {
			dst[j] = v
		} else {
			dst[j] = 0
		}
	}
}

// reluGradGeneric is the portable ReLU gradient row.
func reluGradGeneric(dst, grad, a []float32) {
	dst, grad = dst[:len(a)], grad[:len(a)]
	for j, v := range a {
		if v > 0 {
			dst[j] = grad[j]
		} else {
			dst[j] = 0
		}
	}
}

// axpyGeneric is the portable AXPY and the oracle the assembly is tested
// against. The explicit float32 conversion rounds the product before the
// add: the Go spec forbids fusing across it, so arm64, ppc64, s390x and
// GOAMD64=v3 builds — where the compiler would otherwise emit an FMA —
// produce the same bits as the mul+add assembly.
func axpyGeneric(dst []float32, a float32, x []float32) {
	dst = dst[:len(x)]
	for j, v := range x {
		dst[j] += float32(a * v)
	}
}

// accumRunGeneric is the portable AccumRun and the oracle of its assembly:
// the per-edge walk, one axpyGeneric per source row.
func accumRunGeneric(dst, x []float32, rs int, idx []int32, w []float32) {
	for i, s := range idx {
		axpyGeneric(dst[:rs], w[i], x[int(s)*rs:(int(s)+1)*rs])
	}
}

// mulAddRowGeneric is the portable mulAddRow, at every stride.
func mulAddRowGeneric(ci, ai []float32, lda int, b []float32, p0, p1, n int, skipZero bool) {
	for p := p0; p < p1; p++ {
		av := ai[p*lda]
		if av == 0 && skipZero {
			continue
		}
		axpyGeneric(ci, av, b[p*n:(p+1)*n])
	}
}
