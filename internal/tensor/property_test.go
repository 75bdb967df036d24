package tensor

import (
	"math"
	"strings"
	"testing"
)

// Property tests for the blocked/pooled fast paths: each parallel or
// buffer-reusing path must produce output bitwise identical to its
// sequential reference, including under power-law (hub-skewed) index
// distributions, because the paper's accuracy-parity claim (Figure 14)
// assumes execution strategy never changes the numbers.

// refScatterAdd is the trivially-correct sequential accumulation.
func refScatterAdd(dst, src *Tensor, idx []int32) {
	rs := src.RowSize()
	for i, ix := range idx {
		d := dst.Data()[int(ix)*rs : (int(ix)+1)*rs]
		s := src.Data()[i*rs : (i+1)*rs]
		for j, v := range s {
			d[j] += v
		}
	}
}

// TestScatterAddRowsBitwiseEqualScalar holds ScatterAddRows to the scalar
// accumulation in index order under a hub-skewed index, with ±0 in the
// source rows and in the destination it adds into, and NaN in the source.
func TestScatterAddRowsBitwiseEqualScalar(t *testing.T) {
	rng := NewRNG(101)
	negZero := float32(math.Copysign(0, -1))
	for _, tc := range []struct{ rows, cols, nnz int }{
		{rows: 512, cols: 17, nnz: 5000},
		{rows: 64, cols: 3, nnz: 2000},
		{rows: 4096, cols: 32, nnz: 20000},
	} {
		idx := powerLawIdx(rng, tc.nnz, tc.rows)
		src := Uniform(New(tc.nnz, tc.cols), rng, -1, 1)
		for i := range src.Data() {
			switch {
			case i%1009 == 0:
				src.Data()[i] = float32(math.NaN())
			case i%7 == 0:
				src.Data()[i] = negZero
			case i%11 == 0:
				src.Data()[i] = 0
			}
		}
		want, got := New(tc.rows, tc.cols), New(tc.rows, tc.cols)
		for i := 0; i < want.Len(); i += 3 {
			want.Data()[i], got.Data()[i] = negZero, negZero
		}
		refScatterAdd(want, src, idx)
		ScatterAddRows(got, src, idx)
		for i, v := range got.Data() {
			if math.Float32bits(v) != math.Float32bits(want.Data()[i]) {
				t.Fatalf("rows=%d: got[%d]=%v, scalar=%v", tc.rows, i, v, want.Data()[i])
			}
		}
	}
}

// TestMatMulBlockedBitwiseEqualNaive exercises the cache-blocked K-panel
// path (k*n > matmulPanel) against a naive ascending-k accumulation, which
// shares its per-element summation order.
func TestMatMulBlockedBitwiseEqualNaive(t *testing.T) {
	rng := NewRNG(104)
	const m, k, n = 48, 300, 256 // k*n = 76800 > matmulPanel
	if k*n <= matmulPanel {
		t.Fatal("test sizes no longer trigger the blocked path")
	}
	a := Uniform(New(m, k), rng, -1, 1)
	b := Uniform(New(k, n), rng, -1, 1)
	want := New(m, n)
	for i := 0; i < m; i++ {
		for p := 0; p < k; p++ {
			av := a.At(i, p)
			for j := 0; j < n; j++ {
				want.Data()[i*n+j] += av * b.At(p, j)
			}
		}
	}
	for _, workers := range []int{1, 4} {
		withWorkers(t, workers, func() {
			got := MatMul(nil, a, b)
			for i, v := range got.Data() {
				if v != want.Data()[i] {
					t.Fatalf("workers=%d: blocked[%d]=%v, naive=%v", workers, i, v, want.Data()[i])
				}
			}
		})
	}
}

func TestGetPutRoundTrip(t *testing.T) {
	a := Get(7, 9)
	if a.Dim(0) != 7 || a.Dim(1) != 9 {
		t.Fatalf("Get shape %v", a.Shape())
	}
	for i := range a.Data() {
		a.Data()[i] = 42
	}
	Put(a)
	if a.Data() != nil {
		t.Fatal("Put must poison the tensor")
	}
	// a recycled tensor must come back zero-filled
	b := Get(7, 9)
	for i, v := range b.Data() {
		if v != 0 {
			t.Fatalf("recycled Get not zeroed at %d: %v", i, v)
		}
	}
	Put(b)
	// zero-sized shapes bypass the pool but must still work
	z := Get(0, 5)
	if z.Len() != 0 {
		t.Fatalf("zero Get length %d", z.Len())
	}
	Put(z)
}

func TestGather2DEmptySourcePanics(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Gather2D on empty source must panic")
		}
		if !strings.Contains(r.(string), "empty leading dimension") {
			t.Fatalf("unclear panic: %v", r)
		}
	}()
	Gather2D(nil, New(0, 4), []int32{}, []int32{})
}
