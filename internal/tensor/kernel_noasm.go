//go:build !amd64

package tensor

// No assembly kernel on this architecture: the generic loops always run
// and the compiler drops the calls below as dead code.
const useAVX2, useAVX512 = false, false

func axpyAVX2(dst []float32, a float32, x []float32) { panic("tensor: no assembly kernel") }

func mulAddRowAVX2(ci, ai, b []float32, p0, p1, n int, skipZero bool) {
	panic("tensor: no assembly kernel")
}

func mulAddRowStridedAVX2(ci, ai []float32, lda int, b []float32, p0, p1, n int, skipZero bool) {
	panic("tensor: no assembly kernel")
}

func mulAddRowStridedAVX512(ci, ai []float32, lda int, b []float32, p0, p1, n int, skipZero bool) {
	panic("tensor: no assembly kernel")
}

func accumRunAVX2(dst, x []float32, rs int, idx []int32, w []float32) {
	panic("tensor: no assembly kernel")
}

func accumRunAVX512(dst, x []float32, rs int, idx []int32, w []float32) {
	panic("tensor: no assembly kernel")
}

func reluAVX2(dst, x []float32) { panic("tensor: no assembly kernel") }

func reluGradAVX2(dst, grad, a []float32) { panic("tensor: no assembly kernel") }

func boxMullerAVX512(dst, u, v []float64) { panic("tensor: no assembly kernel") }
