package tensor

import "testing"

var rowKernels = []rowKernel{
	{"avx512", useAVX512, mulAddRowStridedAVX512},
	{"avx2", useAVX2, func(ci, ai []float32, lda int, b []float32, p0, p1, n int, skipZero bool) {
		if lda == 1 {
			mulAddRowAVX2(ci, ai, b, p0, p1, n, skipZero)
			return
		}
		mulAddRowStridedAVX2(ci, ai, lda, b, p0, p1, n, skipZero)
	}},
}

var runKernels = []runKernel{
	{"avx512", useAVX512, accumRunAVX512},
	{"avx2", useAVX2, accumRunAVX2},
}

// dispatchTo makes mulAddRow run k until the test ends.
func dispatchTo(t *testing.T, k rowKernel) {
	saved := useAVX512
	useAVX512 = k.name == "avx512"
	t.Cleanup(func() { useAVX512 = saved })
}

var normKernels = []normKernel{{"avx512", useAVX512, boxMullerAVX512}}
