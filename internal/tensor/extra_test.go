package tensor

import (
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// withWorkers forces a worker count so the parallel code paths execute
// even on single-core machines.
func withWorkers(t *testing.T, n int, fn func()) {
	t.Helper()
	old := runtime.GOMAXPROCS(n)
	defer runtime.GOMAXPROCS(old)
	fn()
}

func TestCopyFrom(t *testing.T) {
	a := FromSlice([]float32{3, 3, 3, 3}, 2, 2)
	b := New(2, 2)
	b.CopyFrom(a)
	if b.At(1, 1) != 3 {
		t.Fatal("CopyFrom failed")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("CopyFrom with mismatched length must panic")
		}
	}()
	New(3).CopyFrom(a)
}

func TestSameShapeAndString(t *testing.T) {
	a := New(2, 3)
	if !a.SameShape(New(2, 3)) || a.SameShape(New(3, 2)) || a.SameShape(New(6)) {
		t.Fatal("SameShape wrong")
	}
	if !strings.Contains(a.String(), "Tensor[2 3]") {
		t.Fatalf("String = %q", a.String())
	}
	if a.Shape()[0] != 2 {
		t.Fatal("Shape accessor")
	}
}

func TestAllFinite(t *testing.T) {
	a := FromSlice([]float32{1, -5, 2}, 3)
	if !a.AllFinite() {
		t.Fatal("finite tensor reported non-finite")
	}
	a.Data()[1] = float32(math.NaN())
	if a.AllFinite() {
		t.Fatal("NaN not detected")
	}
	a.Data()[1] = float32(math.Inf(1))
	if a.AllFinite() {
		t.Fatal("Inf not detected")
	}
}

func TestSigmoidTanhValues(t *testing.T) {
	x := FromSlice([]float32{0, 2, -2}, 3)
	s := Sigmoid(nil, x)
	if math.Abs(float64(s.Data()[0])-0.5) > 1e-6 {
		t.Fatalf("sigmoid(0) = %v", s.Data()[0])
	}
	if math.Abs(float64(s.Data()[1])-1/(1+math.Exp(-2))) > 1e-5 {
		t.Fatalf("sigmoid(2) = %v", s.Data()[1])
	}
	th := Tanh(nil, x)
	if math.Abs(float64(th.Data()[2])-math.Tanh(-2)) > 1e-5 {
		t.Fatalf("tanh(-2) = %v", th.Data()[2])
	}
}

func TestReLUGradAndLeakyGrad(t *testing.T) {
	a := FromSlice([]float32{2, -3, 0.5, -0.1}, 4)
	g := FromSlice([]float32{1, 1, 1, 1}, 4)
	rg := ReLUGrad(nil, g, a)
	want := []float32{1, 0, 1, 0}
	for i := range want {
		if rg.Data()[i] != want[i] {
			t.Fatalf("ReLUGrad[%d] = %v", i, rg.Data()[i])
		}
	}
	lg := LeakyReLUGrad(nil, g, a, 0.2)
	want = []float32{1, 0.2, 1, 0.2}
	for i := range want {
		if math.Abs(float64(lg.Data()[i]-want[i])) > 1e-6 {
			t.Fatalf("LeakyReLUGrad[%d] = %v", i, lg.Data()[i])
		}
	}
}

func TestRNGNormal(t *testing.T) {
	rng := NewRNG(5)
	var sum, sumSq float64
	const n = 5000
	vs := make([]float64, n)
	rng.NormFloat64s(vs, make([]float64, n))
	for _, v := range vs {
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.1 || math.Abs(variance-1) > 0.15 {
		t.Fatalf("normal stats off: mean %v var %v", mean, variance)
	}
	// zero seed remaps to a usable state
	if NewRNG(0).Uint64() == 0 {
		t.Fatal("zero seed produced zero stream")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) must panic")
		}
	}()
	rng.Intn(0)
}

func TestScatterAddParallelShardPath(t *testing.T) {
	withWorkers(t, 4, func() {
		rng := NewRNG(8)
		n := 4096
		src := New(n, 3)
		Uniform(src, rng, -1, 1)
		idx := make([]int32, n)
		for i := range idx {
			idx[i] = int32(rng.Intn(64))
		}
		dst := New(64, 3)
		ScatterAddRows(dst, src, idx)
		if !almostEq(dst.Sum(), src.Sum(), 1e-2) {
			t.Fatalf("parallel scatter lost mass: %v vs %v", dst.Sum(), src.Sum())
		}
	})
}

func TestMatMulParallelPath(t *testing.T) {
	withWorkers(t, 4, func() {
		rng := NewRNG(10)
		a := New(64, 32)
		Uniform(a, rng, -1, 1)
		b := New(32, 48)
		Uniform(b, rng, -1, 1)
		got := MatMul(nil, a, b)
		want := naiveMatMul(a, b)
		for i := range got.Data() {
			if !almostEq(float64(got.Data()[i]), float64(want.Data()[i]), 1e-4) {
				t.Fatalf("parallel matmul differs at %d", i)
			}
		}
	})
}

func TestEnsurePanicsOnWrongShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MatMul into wrong-shaped destination must panic")
		}
	}()
	MatMul(New(3, 3), New(2, 2), New(2, 2))
}

// Behind the assembly kernel a mis-shaped operand is an out-of-bounds
// write, not a bounds panic: every matmul entry point must reject it
// before any row reaches the kernel.
func TestMatMulVariantsPanicOnWrongShape(t *testing.T) {
	for name, call := range map[string]func(){
		"MatMulAcc small dst":      func() { MatMulAcc(New(2, 2), New(3, 4), New(4, 5)) },
		"MatMulAcc 1-D dst":        func() { MatMulAcc(New(15), New(3, 4), New(4, 5)) },
		"MatMulAcc 1-D a":          func() { MatMulAcc(nil, New(4), New(4, 5)) },
		"MatMulAcc 3-D b":          func() { MatMulAcc(nil, New(3, 4), New(4, 5, 2)) },
		"MatMulAcc inner":          func() { MatMulAcc(nil, New(3, 4), New(5, 5)) },
		"MatMulTransA 3-D a":       func() { MatMulTransA(nil, New(4, 3, 2), New(4, 5)) },
		"MatMulTransB 3-D b":       func() { MatMulTransB(nil, New(3, 4), New(5, 4, 2)) },
		"BatchedMatMul small dst":  func() { BatchedMatMul(New(2, 3, 4), New(2, 3, 4), New(2, 4, 5)) },
		"BatchedMatMul 2-D dst":    func() { BatchedMatMul(New(6, 5), New(2, 3, 4), New(2, 4, 5)) },
		"BatchedMatMul batch dims": func() { BatchedMatMul(nil, New(2, 3, 4), New(3, 4, 5)) },
		"VecMat short dst":         func() { VecMat(make([]float32, 4), make([]float32, 4), New(4, 5)) },
		"VecMatAcc short x":        func() { VecMatAcc(make([]float32, 5), make([]float32, 3), New(4, 5)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s must panic", name)
				}
			}()
			call()
		}()
	}
}

func TestVecMatChecksBeforeClearing(t *testing.T) {
	dst := []float32{1, 2, 3, 4}
	func() {
		defer func() { recover() }()
		VecMat(dst, make([]float32, 4), New(4, 5))
	}()
	if !slices.Equal(dst, []float32{1, 2, 3, 4}) {
		t.Fatalf("mis-shaped VecMat changed dst to %v before panicking", dst)
	}
}

func TestEnsureLikePanicsOnWrongLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add into wrong-length destination must panic")
		}
	}()
	Add(New(5), New(2, 2), New(2, 2))
}

func TestCheckSamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add with mismatched shapes must panic")
		}
	}()
	Add(nil, New(2, 2), New(4))
}
