package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func naiveMatMul(a, b *Tensor) *Tensor {
	m, k, n := a.Dim(0), a.Dim(1), b.Dim(1)
	c := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for p := 0; p < k; p++ {
				s += float64(a.At(i, p)) * float64(b.At(p, j))
			}
			c.Set(float32(s), i, j)
		}
	}
	return c
}

// Transpose2D returns Aᵀ for a 2-D tensor through transposeInto, the copy
// MatMulTransB packs B with: the oracle side of the transpose tests.
func Transpose2D(dst, a *Tensor) *Tensor {
	m, n := a.Dim(0), a.Dim(1)
	dst = ensure(dst, n, m)
	transposeInto(dst.data, a.data, m, n)
	return dst
}

func randTensor(rng *RNG, shape ...int) *Tensor {
	t := New(shape...)
	Uniform(t, rng, -1, 1)
	return t
}

func tensorsClose(t *testing.T, got, want *Tensor, tol float64) {
	t.Helper()
	if !got.SameShape(want) {
		t.Fatalf("shape mismatch: got %v want %v", got.Shape(), want.Shape())
	}
	for i := range got.Data() {
		if !almostEq(float64(got.Data()[i]), float64(want.Data()[i]), tol) {
			t.Fatalf("element %d: got %v want %v", i, got.Data()[i], want.Data()[i])
		}
	}
}

func TestNewShapeAndAccess(t *testing.T) {
	a := New(2, 3)
	if a.Len() != 6 || a.Dims() != 2 || a.Dim(0) != 2 || a.Dim(1) != 3 {
		t.Fatalf("unexpected metadata: %v len=%d", a.Shape(), a.Len())
	}
	a.Set(5, 1, 2)
	if a.At(1, 2) != 5 {
		t.Fatalf("At(1,2) = %v, want 5", a.At(1, 2))
	}
	if a.Row(1)[2] != 5 {
		t.Fatalf("Row view broken")
	}
}

func TestReshapeInference(t *testing.T) {
	a := New(4, 6)
	b := a.Reshape(2, -1)
	if b.Dim(1) != 12 {
		t.Fatalf("inferred dim = %d, want 12", b.Dim(1))
	}
	b.Set(7, 0, 0)
	if a.At(0, 0) != 7 {
		t.Fatalf("Reshape must alias storage")
	}
}

func TestReshapeBadPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic for incompatible reshape")
		}
	}()
	New(2, 3).Reshape(4, 2)
}

func TestMatMulMatchesNaive(t *testing.T) {
	rng := NewRNG(1)
	for _, dims := range [][3]int{{1, 1, 1}, {3, 4, 5}, {17, 9, 13}, {64, 32, 48}} {
		a := randTensor(rng, dims[0], dims[1])
		b := randTensor(rng, dims[1], dims[2])
		got := MatMul(nil, a, b)
		tensorsClose(t, got, naiveMatMul(a, b), 1e-4)
	}
}

func TestMatMulAccAccumulates(t *testing.T) {
	rng := NewRNG(2)
	a := randTensor(rng, 4, 3)
	b := randTensor(rng, 3, 5)
	base := randTensor(rng, 4, 5)
	dst := base.Clone()
	MatMulAcc(dst, a, b)
	want := Add(nil, base, naiveMatMul(a, b))
	tensorsClose(t, dst, want, 1e-4)
}

func TestMatMulTransB(t *testing.T) {
	rng := NewRNG(3)
	a := randTensor(rng, 6, 7)
	b := randTensor(rng, 5, 7)
	got := MatMulTransB(nil, a, b)
	want := naiveMatMul(a, Transpose2D(nil, b))
	tensorsClose(t, got, want, 1e-4)
}

func TestMatMulTransA(t *testing.T) {
	rng := NewRNG(4)
	a := randTensor(rng, 7, 4)
	b := randTensor(rng, 7, 5)
	got := MatMulTransA(nil, a, b)
	want := naiveMatMul(Transpose2D(nil, a), b)
	tensorsClose(t, got, want, 1e-4)
}

func TestVecMatMatchesMatMul(t *testing.T) {
	rng := NewRNG(5)
	x := randTensor(rng, 1, 9)
	b := randTensor(rng, 9, 4)
	out := make([]float32, 4)
	VecMat(out, x.Data(), b)
	want := naiveMatMul(x, b)
	for j := range out {
		if !almostEq(float64(out[j]), float64(want.At(0, j)), 1e-4) {
			t.Fatalf("VecMat[%d] = %v, want %v", j, out[j], want.At(0, j))
		}
	}
}

func TestBatchedMatMul(t *testing.T) {
	rng := NewRNG(6)
	a := randTensor(rng, 3, 4, 5)
	b := randTensor(rng, 3, 5, 2)
	got := BatchedMatMul(nil, a, b)
	for i := 0; i < 3; i++ {
		ai := FromSlice(a.Data()[i*20:(i+1)*20], 4, 5)
		bi := FromSlice(b.Data()[i*10:(i+1)*10], 5, 2)
		want := naiveMatMul(ai, bi)
		gi := FromSlice(got.Data()[i*8:(i+1)*8], 4, 2)
		tensorsClose(t, gi, want, 1e-4)
	}
}

func TestTransposeInvolution(t *testing.T) {
	rng := NewRNG(7)
	a := randTensor(rng, 5, 8)
	back := Transpose2D(nil, Transpose2D(nil, a))
	tensorsClose(t, back, a, 0)
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice([]float32{1, -2, 3, -4}, 2, 2)
	b := FromSlice([]float32{2, 2, 2, 2}, 2, 2)
	tensorsClose(t, Add(nil, a, b), FromSlice([]float32{3, 0, 5, -2}, 2, 2), 0)
	tensorsClose(t, Mul(nil, a, b), FromSlice([]float32{2, -4, 6, -8}, 2, 2), 0)
	tensorsClose(t, Scale(nil, a, 0.5), FromSlice([]float32{0.5, -1, 1.5, -2}, 2, 2), 0)
	tensorsClose(t, ReLU(nil, a), FromSlice([]float32{1, 0, 3, 0}, 2, 2), 0)
	tensorsClose(t, LeakyReLU(nil, a, 0.1), FromSlice([]float32{1, -0.2, 3, -0.4}, 2, 2), 1e-6)
}

func TestAXPYAndAddBias(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	x := FromSlice([]float32{10, 10, 10, 10}, 2, 2)
	AXPY(a, 0.5, x)
	tensorsClose(t, a, FromSlice([]float32{6, 7, 8, 9}, 2, 2), 0)
	bias := FromSlice([]float32{1, -1}, 2)
	AddBias(a, bias)
	tensorsClose(t, a, FromSlice([]float32{7, 6, 9, 8}, 2, 2), 0)
}

func TestCrossEntropyGradientNumeric(t *testing.T) {
	rng := NewRNG(10)
	logits := randTensor(rng, 5, 4)
	labels := []int32{0, 3, 1, 2, 0}
	mask := []int32{0, 2, 4}
	grad := New(5, 4)
	loss := CrossEntropy(logits, labels, mask, grad)
	if loss <= 0 {
		t.Fatalf("loss = %v, want > 0", loss)
	}
	// numeric gradient check at a few positions
	eps := float32(1e-3)
	for _, pos := range [][2]int{{0, 0}, {2, 1}, {4, 3}, {1, 2}} {
		orig := logits.At(pos[0], pos[1])
		logits.Set(orig+eps, pos[0], pos[1])
		lp := CrossEntropy(logits, labels, mask, nil)
		logits.Set(orig-eps, pos[0], pos[1])
		lm := CrossEntropy(logits, labels, mask, nil)
		logits.Set(orig, pos[0], pos[1])
		num := (lp - lm) / float64(2*eps)
		if !almostEq(num, float64(grad.At(pos[0], pos[1])), 2e-3) {
			t.Fatalf("grad[%v] = %v, numeric %v", pos, grad.At(pos[0], pos[1]), num)
		}
	}
	// masked-out row 1 must have zero gradient
	for j := 0; j < 4; j++ {
		if grad.At(1, j) != 0 {
			t.Fatalf("masked row has gradient %v", grad.At(1, j))
		}
	}
}

func TestGatherScatterRoundTrip(t *testing.T) {
	rng := NewRNG(11)
	src := randTensor(rng, 6, 3)
	idx := []int32{5, 0, 0, 2}
	g := GatherRows(nil, src, idx)
	for i, ix := range idx {
		for j := 0; j < 3; j++ {
			if g.At(i, j) != src.At(int(ix), j) {
				t.Fatalf("gather mismatch at (%d,%d)", i, j)
			}
		}
	}
	dst := New(6, 3)
	ScatterAddRows(dst, g, idx)
	// row 0 received two copies, rows 2 and 5 one, others zero
	for j := 0; j < 3; j++ {
		if !almostEq(float64(dst.At(0, j)), 2*float64(src.At(0, j)), 1e-5) {
			t.Fatalf("scatter row 0 wrong")
		}
		if dst.At(1, j) != 0 || dst.At(3, j) != 0 || dst.At(4, j) != 0 {
			t.Fatalf("untouched rows must be zero")
		}
	}
}

func TestGather2D(t *testing.T) {
	rng := NewRNG(13)
	src := randTensor(rng, 3, 4, 2) // R=3, C=4, inner=2
	ri := []int32{0, 2, 2, 1}
	ci := []int32{3, 0, 0, 1}
	g := Gather2D(nil, src, ri, ci)
	for i := range ri {
		for j := 0; j < 2; j++ {
			if g.At(i, j) != src.At(int(ri[i]), int(ci[i]), j) {
				t.Fatalf("gather2d mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestCountsToOffsets(t *testing.T) {
	off := CountsToOffsets([]int32{2, 0, 3})
	want := []int32{0, 2, 2, 5}
	for i := range want {
		if off[i] != want[i] {
			t.Fatalf("offsets %v, want %v", off, want)
		}
	}
}

func TestArgMaxRows(t *testing.T) {
	a := FromSlice([]float32{0, 5, 1, 9, 2, 3}, 2, 3)
	got := ArgMaxRows(a)
	if got[0] != 1 || got[1] != 0 {
		t.Fatalf("argmax = %v", got)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed must give same stream")
		}
	}
	if NewRNG(1).Uint64() == NewRNG(2).Uint64() {
		t.Fatalf("different seeds should diverge")
	}
}

func TestXavierBounds(t *testing.T) {
	w := XavierUniform(New(64, 32), NewRNG(3))
	limit := math.Sqrt(6.0 / 96.0)
	for _, v := range w.Data() {
		if math.Abs(float64(v)) > limit {
			t.Fatalf("xavier value %v exceeds limit %v", v, limit)
		}
	}
}

// Property: (A×B)ᵀ == Bᵀ×Aᵀ.
func TestPropMatMulTransposeIdentity(t *testing.T) {
	f := func(seed uint64, msmall, ksmall, nsmall uint8) bool {
		m, k, n := int(msmall%7)+1, int(ksmall%7)+1, int(nsmall%7)+1
		rng := NewRNG(seed)
		a := randTensor(rng, m, k)
		b := randTensor(rng, k, n)
		left := Transpose2D(nil, MatMul(nil, a, b))
		right := MatMul(nil, Transpose2D(nil, b), Transpose2D(nil, a))
		for i := range left.Data() {
			if !almostEq(float64(left.Data()[i]), float64(right.Data()[i]), 1e-3) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: scatter-add conserves mass — sum(dst) == sum(src).
func TestPropScatterConservesMass(t *testing.T) {
	f := func(seed uint64, rowsSmall, bucketSmall uint8) bool {
		rows := int(rowsSmall%50) + 1
		buckets := int(bucketSmall%10) + 1
		rng := NewRNG(seed)
		src := randTensor(rng, rows, 3)
		idx := make([]int32, rows)
		for i := range idx {
			idx[i] = int32(rng.Intn(buckets))
		}
		dst := New(buckets, 3)
		ScatterAddRows(dst, src, idx)
		return almostEq(dst.Sum(), src.Sum(), 1e-2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: GatherRows with the identity index is identity.
func TestPropGatherIdentity(t *testing.T) {
	f := func(seed uint64, nSmall uint8) bool {
		n := int(nSmall%20) + 1
		rng := NewRNG(seed)
		src := randTensor(rng, n, 2)
		idx := make([]int32, n)
		for i := range idx {
			idx[i] = int32(i)
		}
		g := GatherRows(nil, src, idx)
		for i := range g.Data() {
			if g.Data()[i] != src.Data()[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
