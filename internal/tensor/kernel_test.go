package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"
)

// Exact-parity tests for the vector kernel: whatever path AxpyRow/mulAddRow
// dispatch to (the AVX2 or AVX-512 assembly on amd64) must produce the
// same bits as the scalar loops it replaced, for every row width,
// alignment, k range and float class. NaN payloads are unspecified: NaN
// matches NaN.

// kernelWidths covers every tile of the row kernel: the scalar-width
// tails 1..7, the 8/16/32-wide tiles and their tails, the 64-wide tile
// alone, repeated, and with every remainder class after it.
func kernelWidths() []int {
	var ns []int
	for n := 1; n <= 70; n++ {
		ns = append(ns, n)
	}
	return append(ns, 127, 128, 129, 256, 1024)
}

// kernelVals fills n values starting at an odd element offset into their
// backing array, so vector loads and stores are never 32-byte aligned by
// luck. About a tenth of the values are ±0 (the zero-skip); with special
// set, denormals, ±Inf and near-overflow magnitudes are mixed in too.
func kernelVals(rng *RNG, n int, special bool) []float32 {
	off := 1 + 2*rng.Intn(4)
	v := make([]float32, off+n)[off:]
	for i := range v {
		c := rng.Intn(20)
		switch {
		case c == 0:
			v[i] = 0
		case c == 1:
			v[i] = float32(math.Copysign(0, -1))
		case special && c == 2:
			v[i] = math.Float32frombits(uint32(1 + rng.Intn(1<<23-1))) // denormal
		case special && c == 3:
			v[i] = -math.Float32frombits(uint32(1 + rng.Intn(1<<23-1)))
		case special && c == 4:
			v[i] = float32(math.Inf(1 - 2*rng.Intn(2)))
		case special && c == 5:
			v[i] = (1 + rng.Float32()) * 1e38 * float32(1-2*rng.Intn(2))
		default:
			v[i] = 2*rng.Float32() - 1
		}
	}
	return v
}

func sameBits(t *testing.T, what string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: len %d, want %d", what, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if math.Float32bits(g) != math.Float32bits(w) && !(g != g && w != w) {
			t.Fatalf("%s: [%d] = %v (%#08x), scalar reference %v (%#08x)",
				what, i, g, math.Float32bits(g), w, math.Float32bits(w))
		}
	}
}

// refMatMul is the scalar i-p-j loop every matmul variant ran before the
// row kernel, kept as the test reference: c[i,j] += a[i,p]·b[p,j], p
// ascending, one rounding per multiply and one per add.
func refMatMul(c, a, b []float32, m, k, n int, skipZero bool) {
	for i := 0; i < m; i++ {
		for p := 0; p < k; p++ {
			av := a[i*k+p]
			if av == 0 && skipZero {
				continue
			}
			for j := 0; j < n; j++ {
				c[i*n+j] += float32(av * b[p*n+j])
			}
		}
	}
}

// refMatMulTransB is the scalar dot loop MatMulTransB ran before it packed
// B: a running sum from +0 in p order, zero A elements included.
func refMatMulTransB(c, a, b []float32, m, k, n int) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			for p := 0; p < k; p++ {
				s += float32(a[i*k+p] * b[j*k+p])
			}
			c[i*n+j] = s
		}
	}
}

func TestAxpyBitwiseEqualScalar(t *testing.T) {
	rng := NewRNG(1601)
	for _, n := range kernelWidths() {
		for _, special := range []bool{false, true} {
			x := kernelVals(rng, n, special)
			a := kernelVals(rng, 8, special)
			for _, av := range append(a, 1) {
				// dst is longer than x: the tail must stay untouched.
				got := kernelVals(rng, n+9, special)
				want := append([]float32(nil), got...)
				AxpyRow(got, av, x)
				axpyGeneric(want, av, x)
				sameBits(t, "axpy", got, want)
			}
		}
	}
	// AddRow is the plain row add, bit for bit.
	x, got := kernelVals(rng, 77, true), kernelVals(rng, 77, true)
	want := append([]float32(nil), got...)
	for j, v := range x {
		want[j] += v
	}
	AddRow(got, x)
	sameBits(t, "AddRow", got, want)
}

// rowKernel is one assembly implementation of the matmul row — run is the
// entry mulAddRow calls at stride lda — and whether this CPU runs it.
// rowKernels lists them per architecture, widest first.
type rowKernel struct {
	name string
	has  bool
	run  func(ci, ai []float32, lda int, b []float32, p0, p1, n int, skipZero bool)
}

// eachRowKernel runs f as a subtest per assembly row kernel, with
// mulAddRow dispatching to that kernel, and skips the ones this CPU lacks:
// a machine with AVX-512 tests its AVX2 kernels too.
func eachRowKernel(t *testing.T, f func(t *testing.T, k rowKernel)) {
	for _, k := range rowKernels {
		t.Run(k.name, func(t *testing.T) {
			if !k.has {
				t.Skipf("this CPU has no %s", k.name)
			}
			t.Logf("row kernel %s", k.name)
			dispatchTo(t, k)
			f(t, k)
		})
	}
}

func TestMulAddRowBitwiseEqualScalar(t *testing.T) {
	eachRowKernel(t, func(t *testing.T, kern rowKernel) {
		rng := NewRNG(1602)
		for _, n := range kernelWidths() {
			for round := 0; round < 4; round++ {
				special, skip := round&1 != 0, round&2 != 0
				k := 1 + rng.Intn(40)
				p0 := rng.Intn(k)
				p1 := p0 + rng.Intn(k-p0+1) // p1 == p0: the empty range
				ai := kernelVals(rng, k, special)
				b := kernelVals(rng, k*n, special)
				got := kernelVals(rng, n+9, special)
				want := append([]float32(nil), got...)
				kern.run(got, ai, 1, b, p0, p1, n, skip)
				mulAddRowGeneric(want, ai, 1, b, p0, p1, n, skip)
				sameBits(t, "mulAddRow", got, want)
			}
		}
	})
}

// The strided row kernel (A read down a column, lda apart) against the
// generic loop at the same stride, over every tile, the masked tail and
// each AVX-512 remainder class (1–16, 17–32, 33–48, 49–63 columns).
func TestMulAddRowStridedBitwiseEqualScalar(t *testing.T) {
	eachRowKernel(t, func(t *testing.T, kern rowKernel) {
		rng := NewRNG(1608)
		for _, n := range []int{1, 7, 8, 9, 17, 40, 63, 64, 65, 128} {
			for _, lda := range []int{2, 3, 16, 17, 64, 129} {
				for round := 0; round < 4; round++ {
					special, skip := round&1 != 0, round&2 != 0
					k := 1 + rng.Intn(60)
					p0 := rng.Intn(k)
					p1 := p0 + rng.Intn(k-p0+1)
					ai := kernelVals(rng, (k-1)*lda+1, false)
					if special {
						ai = reluVals(rng, (k-1)*lda+1)
					}
					b := kernelVals(rng, k*n, special)
					got := kernelVals(rng, n+9, special)
					want := append([]float32(nil), got...)
					kern.run(got, ai, lda, b, p0, p1, n, skip)
					mulAddRowGeneric(want, ai, lda, b, p0, p1, n, skip)
					sameBits(t, "strided mulAddRow", got, want)
				}
			}
		}
	})
}

// A skipped term leaves C exactly as it was. With c = −0, A elements of
// ±0 and B full of ±Inf or NaN, skipZero keeps every c −0 bit for bit;
// without it the terms are added and c is NaN (0·Inf and 0·NaN are NaN).
// The generic loop and every kernel, at both strides, over the tiles and
// the masked remainder; C's elements past n must stay untouched.
func TestMulAddRowZeroSkipBitwise(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	check := func(t *testing.T, run func(ci, ai []float32, lda int, b []float32, p0, p1, n int, skipZero bool)) {
		for _, n := range []int{1, 7, 8, 9, 16, 17, 40, 63, 64, 65, 100, 128} {
			for _, lda := range []int{1, 3} {
				for _, bv := range []float32{float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN())} {
					for _, skip := range []bool{true, false} {
						const k = 4
						ai := make([]float32, (k-1)*lda+1)
						for p := 1; p < k; p += 2 {
							ai[p*lda] = negZero
						}
						b := make([]float32, k*n)
						for j := range b {
							b[j] = bv
						}
						c := make([]float32, n+9)
						for j := range c {
							c[j] = negZero
						}
						run(c, ai, lda, b, 0, k, n, skip)
						for j, v := range c {
							if (j >= n || skip) && math.Float32bits(v) != 0x80000000 {
								t.Fatalf("n=%d lda=%d b=%v skip=%v: c[%d] = %v (%#08x), want -0", n, lda, bv, skip, j, v, math.Float32bits(v))
							}
							if j < n && !skip && v == v {
								t.Fatalf("n=%d lda=%d b=%v: c[%d] = %v, want NaN", n, lda, bv, j, v)
							}
						}
					}
				}
			}
		}
	}
	check(t, mulAddRowGeneric)
	eachRowKernel(t, func(t *testing.T, k rowKernel) { check(t, k.run) })
}

// MatMulTransA reads A in place; its oracle is MatMulAcc over an explicit
// transpose, accumulating into the same starting bits. K runs across
// several L1 panels, and A carries ±0, NaN and ±Inf. The panel and
// blocking logic is Go, so the "dispatch" subtest runs on every platform
// with whatever mulAddRow picks, the generic loop included; then once per
// assembly kernel the CPU has.
func TestMatMulTransABitwiseEqualTransposed(t *testing.T) {
	check := func(t *testing.T) {
		rng := NewRNG(1609)
		for _, n := range []int{1, 7, 8, 9, 40, 64, 65, 128} {
			kc := max(8, matmulStridedL1/(4*n+64))
			for _, k := range []int{1 + rng.Intn(kc), 3*kc + 1 + rng.Intn(kc)} {
				m := 1 + rng.Intn(40)
				a := FromSlice(reluVals(rng, k*m), k, m)
				b := FromSlice(kernelVals(rng, k*n, true), k, n)
				acc := kernelVals(rng, m*n, false)
				for _, workers := range []int{1, 4} {
					withWorkers(t, workers, func() {
						want := MatMulAcc(FromSlice(append([]float32(nil), acc...), m, n), Transpose2D(nil, a), b)
						got := MatMulTransA(FromSlice(append([]float32(nil), acc...), m, n), a, b)
						sameBits(t, "MatMulTransA", got.data, want.data)
						sameBits(t, "MatMulTransA nil dst", MatMulTransA(nil, a, b).data, MatMul(nil, Transpose2D(nil, a), b).data)
					})
				}
			}
		}
	}
	t.Run("dispatch", check)
	eachRowKernel(t, func(t *testing.T, _ rowKernel) { check(t) })
}

// AddBias runs on the row kernel: the same bits as the scalar
// row[j] += b[j] it replaced, with ±0, denormals, ±Inf and NaN in the rows
// and the bias alike, over enough rows to split across workers.
func TestAddBiasBitwiseEqualScalar(t *testing.T) {
	rng := NewRNG(1610)
	for _, n := range []int{1, 7, 8, 40, 64, 129} {
		m := 1 + rng.Intn(200)
		a := FromSlice(reluVals(rng, m*n), m, n)
		bias := FromSlice(reluVals(rng, n), n)
		want := append([]float32(nil), a.data...)
		for i := 0; i < m; i++ {
			for j, bv := range bias.data {
				want[i*n+j] += bv
			}
		}
		for _, workers := range []int{1, 4} {
			withWorkers(t, workers, func() {
				got := a.Clone()
				AddBias(got, bias)
				sameBits(t, "AddBias", got.data, want)
			})
		}
	}
}

func TestMulAddRowPanicsOnShortSlices(t *testing.T) {
	for name, call := range map[string]func(){
		"ci":  func() { mulAddRow(make([]float32, 7), make([]float32, 4), 1, make([]float32, 32), 0, 4, 8, true) },
		"ai":  func() { mulAddRow(make([]float32, 8), make([]float32, 3), 1, make([]float32, 32), 0, 4, 8, true) },
		"b":   func() { mulAddRow(make([]float32, 8), make([]float32, 4), 1, make([]float32, 31), 0, 4, 8, true) },
		"p0":  func() { mulAddRow(make([]float32, 8), make([]float32, 4), 1, make([]float32, 32), -1, 4, 8, true) },
		"dst": func() { AxpyRow(make([]float32, 7), 1, make([]float32, 8)) },

		// A strided row needs an element at (p1-1)*lda: 3*5 = 15.
		"strided ai": func() { mulAddRow(make([]float32, 8), make([]float32, 15), 5, make([]float32, 32), 0, 4, 8, true) },
		"strided b":  func() { mulAddRow(make([]float32, 8), make([]float32, 16), 5, make([]float32, 31), 0, 4, 8, true) },
		"stride 0":   func() { mulAddRow(make([]float32, 8), make([]float32, 16), 0, make([]float32, 32), 0, 4, 8, true) },

		"relu dst":      func() { reluRow(make([]float32, 8), make([]float32, 9)) },
		"reluGrad dst":  func() { reluGradRow(make([]float32, 8), make([]float32, 9), make([]float32, 9)) },
		"reluGrad grad": func() { reluGradRow(make([]float32, 9), make([]float32, 8), make([]float32, 9)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("short %s must panic before reaching the kernel", name)
				}
			}()
			call()
		}()
	}
}

func TestMatMulVariantsBitwiseEqualScalar(t *testing.T) {
	rng := NewRNG(1603)
	type shape struct{ m, k, n int }
	shapes := []shape{
		{48, 300, 256}, {20, 70, 1024}, {33, 1100, 65}, // K-panel path
	}
	for _, n := range []int{1, 3, 7, 8, 9, 15, 16, 17, 31, 33, 40, 63, 64, 65, 70, 127, 129} {
		shapes = append(shapes, shape{1 + rng.Intn(20), 1 + rng.Intn(50), n})
	}
	if s := shapes[2]; s.k*s.n <= matmulPanel || matmulPanel/s.n >= s.k {
		t.Fatal("test sizes no longer trigger the blocked path")
	}
	for si, s := range shapes {
		m, k, n := s.m, s.k, s.n
		special := si%2 == 1
		a := FromSlice(kernelVals(rng, m*k, special), m, k)
		b := FromSlice(kernelVals(rng, k*n, special), k, n)
		for _, workers := range []int{1, 4} {
			withWorkers(t, workers, func() {
				want := make([]float32, m*n)
				refMatMul(want, a.data, b.data, m, k, n, true)
				sameBits(t, "MatMul", MatMul(nil, a, b).data, want)

				acc := FromSlice(kernelVals(rng, m*n, special), m, n)
				want = append([]float32(nil), acc.data...)
				refMatMul(want, a.data, b.data, m, k, n, true)
				sameBits(t, "MatMulAcc", MatMulAcc(acc, a, b).data, want)

				// A gathered row set (repeats allowed, any order): row i is
				// the reference's row rows[i].
				rows := make([]int32, 1+rng.Intn(2*m))
				ga := make([]float32, 0, len(rows)*k)
				for i := range rows {
					rows[i] = int32(rng.Intn(m))
					ga = append(ga, a.Row(int(rows[i]))...)
				}
				racc := FromSlice(kernelVals(rng, len(rows)*n, special), len(rows), n)
				want = append([]float32(nil), racc.data...)
				refMatMul(want, ga, b.data, len(rows), k, n, true)
				sameBits(t, "MatMulRowsAcc", MatMulRowsAcc(racc, a, rows, b).data, want)

				// Bᵀ·: b read as [n,k]ᵀ needs an [n,k] operand.
				bt := FromSlice(kernelVals(rng, n*k, special), n, k)
				want = make([]float32, m*n)
				refMatMulTransB(want, a.data, bt.data, m, k, n)
				sameBits(t, "MatMulTransB", MatMulTransB(nil, a, bt).data, want)

				// Aᵀ·: a [m,k] read as [k', m'] with k' = m, m' = k.
				c := FromSlice(kernelVals(rng, m*n, special), m, n)
				want = make([]float32, k*n)
				refMatMul(want, Transpose2D(nil, a).data, c.data, k, m, n, true)
				sameBits(t, "MatMulTransA", MatMulTransA(nil, a, c).data, want)
			})
		}

		x := a.Row(0)
		want := make([]float32, n)
		refMatMul(want, x, b.data, 1, k, n, true)
		got := kernelVals(rng, n, special) // VecMat overwrites
		VecMat(got, x, b)
		sameBits(t, "VecMat", got, want)
		acc := kernelVals(rng, n, special)
		want = append([]float32(nil), acc...)
		refMatMul(want, x, b.data, 1, k, n, true)
		VecMatAcc(acc, x, b)
		sameBits(t, "VecMatAcc", acc, want)
	}
}

func TestMatMulRowsAccPanicsOnRowOutsideA(t *testing.T) {
	a, b := New(3, 4), New(4, 2)
	for _, rows := range [][]int32{{0, 3}, {-1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("rows %v accepted for a 3-row A", rows)
				}
			}()
			MatMulRowsAcc(New(len(rows), 2), a, rows, b)
		}()
	}
}

func TestBatchedMatMulBitwiseEqualScalar(t *testing.T) {
	rng := NewRNG(1604)
	for _, n := range []int{1, 7, 8, 33, 64, 70, 129} {
		bs, m, k := 1+rng.Intn(5), 1+rng.Intn(6), 1+rng.Intn(30)
		a := FromSlice(kernelVals(rng, bs*m*k, n%2 == 1), bs, m, k)
		b := FromSlice(kernelVals(rng, bs*k*n, n%2 == 1), bs, k, n)
		want := make([]float32, bs*m*n)
		for i := 0; i < bs; i++ {
			refMatMul(want[i*m*n:(i+1)*m*n], a.data[i*m*k:(i+1)*m*k], b.data[i*k*n:(i+1)*k*n], m, k, n, true)
		}
		dst := FromSlice(kernelVals(rng, bs*m*n, false), bs, m, n) // overwritten
		sameBits(t, "BatchedMatMul", BatchedMatMul(dst, a, b).data, want)
	}
}

// reluVals is kernelVals plus NaNs of both signs, quiet and signalling:
// also the A elements the strided kernel must broadcast, never skip.
func reluVals(rng *RNG, n int) []float32 {
	v := kernelVals(rng, n, true)
	for i := range v {
		if rng.Intn(12) == 0 {
			v[i] = math.Float32frombits(uint32(rng.Intn(2))<<31 | 0x7f800000 | uint32(1+rng.Intn(1<<23-1)))
		}
	}
	return v
}

// exactBits is sameBits without the NaN allowance: ReLU never computes, it
// selects, so even a NaN's payload must match.
func exactBits(t *testing.T, what string, got, want []float32) {
	t.Helper()
	for i := range want {
		if g, w := math.Float32bits(got[i]), math.Float32bits(want[i]); g != w {
			t.Fatalf("%s: [%d] = %#08x, scalar reference %#08x", what, i, g, w)
		}
	}
}

// checkReLU runs both ReLU rows against their scalar loops, with each
// destination longer than the input so the tail must stay untouched, and
// in place.
func checkReLU(t *testing.T, x, grad, fill []float32) {
	t.Helper()
	n := len(x)
	got, want := append([]float32(nil), fill...), append([]float32(nil), fill...)
	reluRow(got, x)
	reluGeneric(want, x)
	exactBits(t, "relu", got, want)
	for j, v := range got[:n] {
		if v != v || math.Signbit(float64(v)) {
			t.Fatalf("relu: [%d] = %v (%#08x) from %#08x, want a non-negative number", j, v, math.Float32bits(v), math.Float32bits(x[j]))
		}
	}
	inPlace := append([]float32(nil), x...)
	reluRow(inPlace, inPlace)
	exactBits(t, "relu in place", inPlace, want[:n])

	got, want = append([]float32(nil), fill...), append([]float32(nil), fill...)
	reluGradRow(got, grad, x)
	reluGradGeneric(want, grad, x)
	exactBits(t, "reluGrad", got, want)
}

func TestReLUBitwiseEqualScalar(t *testing.T) {
	rng := NewRNG(1606)
	for _, n := range kernelWidths() {
		for round := 0; round < 4; round++ {
			checkReLU(t, reluVals(rng, n), reluVals(rng, n), reluVals(rng, n+9))
		}
	}
	// The tensor entry points are the same rows.
	a, g := FromSlice(reluVals(rng, 3*43), 3, 43), FromSlice(reluVals(rng, 3*43), 3, 43)
	want := make([]float32, a.Len())
	reluGeneric(want, a.data)
	exactBits(t, "ReLU", ReLU(nil, a).data, want)
	reluGradGeneric(want, g.data, a.data)
	exactBits(t, "ReLUGrad", ReLUGrad(nil, g, a).data, want)
}

// FuzzReLU lets the fuzzer choose the bit patterns, the width and the
// alignment.
func FuzzReLU(f *testing.F) {
	seed := make([]byte, 4*300)
	rng := NewRNG(1607)
	for i := range seed {
		seed[i] = byte(rng.Intn(256))
	}
	f.Add(seed, uint8(7), uint8(1))
	f.Add(seed, uint8(64), uint8(3))
	f.Add(seed[:4*30], uint8(9), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, width, off uint8) {
		n := 1 + int(width)%130
		if len(data)/4 < 3*n+9 {
			return
		}
		vals := make([]float32, len(data)/4)
		for i := range vals {
			vals[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*i:]))
		}
		place := func(src []float32) []float32 {
			o := int(off) % 8
			return append(make([]float32, o, o+len(src)), src...)[o:]
		}
		checkReLU(t, place(vals[:n]), place(vals[n:2*n]), place(vals[2*n:3*n+9]))
	})
}

// FuzzMulAddRow lets the fuzzer choose the floats themselves (any bit
// pattern, NaNs included), the row width, the A stride, the k sub-range,
// the alignment and the skip flag, and holds every assembly row kernel the
// CPU has to the generic loop.
func FuzzMulAddRow(f *testing.F) {
	seed := make([]byte, 4*200)
	rng := NewRNG(1605)
	for i := range seed {
		seed[i] = byte(rng.Intn(256))
	}
	for _, k := range rowKernels {
		if k.has {
			f.Logf("row kernel %s", k.name)
		}
	}
	f.Add(seed, uint8(7), uint8(0), uint8(0), uint8(255), uint8(1), true)
	f.Add(seed, uint8(64), uint8(2), uint8(1), uint8(2), uint8(3), false)
	f.Add(seed[:4*90], uint8(40), uint8(0), uint8(0), uint8(9), uint8(0), true)
	f.Add(seed, uint8(9), uint8(16), uint8(0), uint8(255), uint8(5), true)
	f.Fuzz(func(t *testing.T, data []byte, width, stride, lo, hi, off uint8, skip bool) {
		n := 1 + int(width)%130
		lda := 1 + int(stride)%65
		vals := make([]float32, len(data)/4)
		for i := range vals {
			vals[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*i:]))
		}
		// c [n], A's k elements lda apart, b [k,n].
		k := (len(vals) - n - 1 + lda) / (n + lda)
		if k < 1 {
			return
		}
		na := (k-1)*lda + 1
		// Copy each operand to its own odd-offset backing array.
		place := func(src []float32) []float32 {
			o := int(off) % 8
			return append(make([]float32, o, o+len(src)), src...)[o:]
		}
		ai := place(vals[n : n+na])
		b := place(vals[n+na : n+na+k*n])
		p0 := int(lo) % k
		p1 := p0 + int(hi)%(k-p0+1)
		want := append([]float32(nil), vals[:n]...)
		mulAddRowGeneric(want, ai, lda, b, p0, p1, n, skip)
		for _, kern := range rowKernels {
			if kern.has {
				got := place(vals[:n])
				kern.run(got, ai, lda, b, p0, p1, n, skip)
				sameBits(t, "mulAddRow "+kern.name, got, want)
			}
		}

		got, want := place(vals[:n]), append([]float32(nil), vals[:n]...)
		AxpyRow(got, ai[0], b[:n])
		axpyGeneric(want, ai[0], b[:n])
		sameBits(t, "axpy", got, want)
	})
}

// runKernel is one assembly implementation of AccumRun and whether this
// CPU runs it; runKernels lists them per architecture, widest first.
type runKernel struct {
	name string
	has  bool
	run  func(dst, x []float32, rs int, idx []int32, w []float32)
}

// runVals is kernelVals with its special values and NaN mixed in too.
func runVals(rng *RNG, n int) []float32 {
	v := kernelVals(rng, n, true)
	for i := range v {
		if rng.Intn(16) == 0 {
			v[i] = float32(math.NaN())
		}
	}
	return v
}

// TestAccumRunBitwise holds every run kernel the CPU has (subtests avx512
// and avx2) and AccumRun's own dispatch to the per-edge walk, bit for bit:
// every width from 1 to 130 (every 128-, 64-, 32-, 16- and 8-column tile,
// each remainder class and the masked tail), runs of 0, 1, 2 and 17
// sources with repeats, ±0, ±Inf, NaN and denormals in dst and the
// sources, and weights of +0, −0 and 1 among random ones. dst is longer
// than the row: its tail must stay untouched.
func TestAccumRunBitwise(t *testing.T) {
	check := func(t *testing.T, run func(dst, x []float32, rs int, idx []int32, w []float32)) {
		rng := NewRNG(1609)
		for rs := 1; rs <= 130; rs++ {
			for _, n := range []int{0, 1, 2, 17} {
				rows := 1 + rng.Intn(9)
				x := runVals(rng, rows*rs)
				idx := make([]int32, n)
				for i := range idx {
					idx[i] = int32(rng.Intn(rows))
				}
				w := runVals(rng, n)
				for i := range w {
					switch rng.Intn(5) {
					case 0:
						w[i] = 0
					case 1:
						w[i] = float32(math.Copysign(0, -1))
					case 2:
						w[i] = 1
					}
				}
				got := runVals(rng, rs+9)
				want := append([]float32(nil), got...)
				run(got, x, rs, idx, w)
				accumRunGeneric(want, x, rs, idx, w)
				sameBits(t, fmt.Sprintf("width %d, run of %d", rs, n), got, want)
			}
		}
	}
	for _, k := range runKernels {
		t.Run(k.name, func(t *testing.T) {
			if !k.has {
				t.Skipf("this CPU has no %s", k.name)
			}
			check(t, k.run)
		})
	}
	t.Run("dispatch", func(t *testing.T) { check(t, AccumRun) })
}

// AccumRun checks its arguments before any kernel reads them.
func TestAccumRunPanicsOnBadArgs(t *testing.T) {
	x, w := make([]float32, 3*4), []float32{1, 1}
	for name, call := range map[string]func(){
		"row past x":   func() { AccumRun(make([]float32, 4), x, 4, []int32{0, 3}, w) },
		"negative row": func() { AccumRun(make([]float32, 4), x, 4, []int32{-1}, w) },
		"short dst":    func() { AccumRun(make([]float32, 3), x, 4, []int32{0}, w) },
		"short w":      func() { AccumRun(make([]float32, 4), x, 4, []int32{0, 1, 2}, w) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			call()
		}()
	}
}

// FuzzAccumRun lets the fuzzer choose the floats (any bit pattern), the
// row width, the run's length and rows, and the alignment, and holds every
// run kernel the CPU has and AccumRun to the per-edge walk.
func FuzzAccumRun(f *testing.F) {
	seed := make([]byte, 4*300)
	rng := NewRNG(1610)
	for i := range seed {
		seed[i] = byte(rng.Intn(256))
	}
	f.Add(seed, uint8(7), uint8(3), uint8(1))
	f.Add(seed, uint8(64), uint8(17), uint8(3))
	f.Add(seed, uint8(40), uint8(2), uint8(0))
	f.Add(seed[:4*40], uint8(9), uint8(1), uint8(5))
	f.Fuzz(func(t *testing.T, data []byte, width, run, off uint8) {
		rs := 1 + int(width)%130
		n := int(run) % 20
		vals := make([]float32, len(data)/4)
		for i := range vals {
			vals[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*i:]))
		}
		// dst [rs], w [n], then x's rows.
		rows := (len(vals) - rs - n) / rs
		if rows < 1 {
			return
		}
		place := func(src []float32) []float32 {
			o := int(off) % 8
			return append(make([]float32, o, o+len(src)), src...)[o:]
		}
		w := place(vals[rs : rs+n])
		x := place(vals[rs+n : rs+n+rows*rs])
		idx := make([]int32, n)
		for i := range idx {
			idx[i] = int32(int(data[i%len(data)]) % rows)
		}
		want := append([]float32(nil), vals[:rs]...)
		accumRunGeneric(want, x, rs, idx, w)
		for _, k := range runKernels {
			if k.has {
				got := place(vals[:rs])
				k.run(got, x, rs, idx, w)
				sameBits(t, "accumRun "+k.name, got, want)
			}
		}
		got := place(vals[:rs])
		AccumRun(got, x, rs, idx, w)
		sameBits(t, "AccumRun", got, want)
	})
}

// BenchmarkMatMulLayerShapes times MatMul on the dense products of SAGE
// 3 × 64 on AR (16 900 vertices, 128 features, 40 classes) and reports
// the dense product's GFLOP/s: [16 900×128]·[128×64] with a dense A, the
// same with half of A zero at random as after a ReLU (the zero-skip's
// case), and the output layer's [16 900×64]·[64×40]. Run it with -cpu 1
// to read the row kernel without the worker pool.
func BenchmarkMatMulLayerShapes(b *testing.B) {
	for _, s := range []struct {
		name    string
		m, k, n int
		relu    bool
	}{
		{"16900x128x64", 16900, 128, 64, false},
		{"16900x128x64_relu", 16900, 128, 64, true},
		{"16900x64x40", 16900, 64, 40, false},
	} {
		b.Run(s.name, func(b *testing.B) {
			rng := NewRNG(17)
			a := Uniform(New(s.m, s.k), rng, -1, 1)
			if s.relu {
				ReLU(a, a)
			}
			w := Uniform(New(s.k, s.n), rng, -1, 1)
			dst := New(s.m, s.n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MatMul(dst, a, w)
			}
			b.ReportMetric(2*float64(s.m*s.k*s.n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
}
