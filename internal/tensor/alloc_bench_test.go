package tensor

import (
	"math"
	"runtime"
	"testing"
)

// Allocation-tracking benchmarks for the hot-path kernels. The workloads
// mirror the paper-shape regime: a power-law index distribution (few hubs
// take most edges) over hidden-dimension-256 rows. Before/after numbers live in EXPERIMENTS.md
// ("Execution substrate" section).

// benchWorkers pins the worker count for the duration of the benchmark so
// the parallel code paths run even on single-core CI machines.
func benchWorkers(b *testing.B, n int) {
	b.Helper()
	old := runtime.GOMAXPROCS(n)
	b.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// powerLawIdx draws n destination indices in [0, rows) with a power-law
// mass concentrated on low row ids (hubs), the in-degree skew of
// citation/social graphs.
func powerLawIdx(rng *RNG, n, rows int) []int32 {
	idx := make([]int32, n)
	for i := range idx {
		u := rng.Float64()
		r := int(math.Pow(u, 3) * float64(rows))
		if r >= rows {
			r = rows - 1
		}
		idx[i] = int32(r)
	}
	return idx
}

func BenchmarkMatMul(b *testing.B) {
	benchWorkers(b, 4)
	rng := NewRNG(11)
	a := Uniform(New(512, 256), rng, -1, 1)
	w := Uniform(New(256, 256), rng, -1, 1)
	dst := New(512, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMul(dst, a, w)
	}
}

func BenchmarkGatherRows(b *testing.B) {
	benchWorkers(b, 4)
	rng := NewRNG(12)
	src := Uniform(New(4096, 256), rng, -1, 1)
	idx := powerLawIdx(rng, 60000, 4096)
	dst := New(len(idx), 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GatherRows(dst, src, idx)
	}
}
