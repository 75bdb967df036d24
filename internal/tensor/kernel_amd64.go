package tensor

// useAVX2 and useAVX512 are decided once from CPUID/XGETBV; there is no
// switch to set them.
var (
	useAVX2   = cpuHasAVX2()
	useAVX512 = cpuHasAVX512()
)

// Implemented in kernel_amd64.s.

func cpuHasAVX2() bool

func cpuHasAVX512() bool

//go:noescape
func axpyAVX2(dst []float32, a float32, x []float32)

//go:noescape
func mulAddRowAVX2(ci, ai, b []float32, p0, p1, n int, skipZero bool)

//go:noescape
func mulAddRowStridedAVX2(ci, ai []float32, lda int, b []float32, p0, p1, n int, skipZero bool)

//go:noescape
func mulAddRowStridedAVX512(ci, ai []float32, lda int, b []float32, p0, p1, n int, skipZero bool)

//go:noescape
func accumRunAVX2(dst, x []float32, rs int, idx []int32, w []float32)

//go:noescape
func accumRunAVX512(dst, x []float32, rs int, idx []int32, w []float32)

//go:noescape
func reluAVX2(dst, x []float32)

//go:noescape
func reluGradAVX2(dst, grad, a []float32)

// Implemented in boxmuller_amd64.s.

//go:noescape
func boxMullerAVX512(dst, u, v []float64)
