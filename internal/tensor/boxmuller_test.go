package tensor

import (
	"fmt"
	"math"
	"testing"
)

// normKernel is one assembly implementation of boxMuller and whether this
// CPU runs it; normKernels lists them per architecture.
type normKernel struct {
	name string
	has  bool
	run  func(dst, u, v []float64)
}

// sameBits64 fails unless got and want hold the same float64 bits.
func sameBits64(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: [%d] = %v (%#016x), math.Log/math.Cos give %v (%#016x)",
				what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// normDraws fills u and v as NormFloat64s draws them.
func normDraws(r *RNG, u, v []float64) {
	for i := range u {
		u[i] = r.Float64()
		for u[i] <= 1e-12 {
			u[i] = r.Float64()
		}
		v[i] = r.Float64()
	}
}

// boxMullerEdges returns (u, v) pairs at the edges of the kernel's
// arithmetic: u just above 1e-12, u → 1⁻ and u at and around √2/2·2⁻ᵐ
// (archLog's fold), each with v = 0, v → 1⁻ and v at and around every
// octant edge k/8 (cos's octant, its parity fix-up and the selection).
func boxMullerEdges() (u, v []float64) {
	const ulp = 1.0 / (1 << 53) // the stream's grid
	var us, vs []float64
	for k := 0; k < 4; k++ {
		us = append(us, math.Ceil(1e-12/ulp)*ulp+float64(k)*ulp, 1-float64(k+1)*ulp)
	}
	us = append(us, math.Nextafter(1e-12, 1), 0.5, 0.25, math.Nextafter(1, 0))
	for m := 0; m < 40; m += 3 {
		h := math.Ldexp(math.Sqrt2/2, -m)
		us = append(us, h, math.Nextafter(h, 0), math.Nextafter(h, 1))
	}
	vs = append(vs, 0, ulp, 1-ulp, 1-2*ulp)
	for k := 1; k < 8; k++ {
		e := float64(k) / 8
		for d := -3; d <= 3; d++ {
			vs = append(vs, e+float64(d)*ulp)
		}
	}
	for _, a := range us {
		for _, b := range vs {
			u, v = append(u, a), append(v, b)
		}
	}
	return u, v
}

// TestBoxMullerBitwise holds every Box–Muller kernel the CPU has (subtest
// avx512) and boxMuller's own dispatch to the math.Log/math.Cos formula,
// bit for bit: 10⁷ consecutive draws from several seeds, the edge values of
// boxMullerEdges, and every row length from 1 to 130 (each count of full
// ZMM blocks and the masked tail), with the elements past the row left
// untouched and dst the same slice as u, as NormFloat64s calls it. The
// dispatch subtest also holds NormFloat64s to one Box–Muller draw per
// element.
func TestBoxMullerBitwise(t *testing.T) {
	check := func(t *testing.T, run func(dst, u, v []float64)) {
		const row = 4096
		u, v := make([]float64, row), make([]float64, row)
		got, want := make([]float64, row), make([]float64, row)
		for _, seed := range []uint64{1, 2, 0xfeed, 1 << 40, 99991} {
			r := NewRNG(seed)
			for n := 0; n < 2_000_000; n += row {
				normDraws(r, u, v)
				run(got, u, v)
				boxMullerGeneric(want, u, v)
				sameBits64(t, fmt.Sprintf("seed %d, draw %d", seed, n), got, want)
			}
		}

		eu, ev := boxMullerEdges()
		got, want = make([]float64, len(eu)), make([]float64, len(eu))
		run(got, eu, ev)
		boxMullerGeneric(want, eu, ev)
		sameBits64(t, "edges", got, want)

		r := NewRNG(1611)
		for n := 1; n <= 130; n++ {
			u, v := make([]float64, n+9), make([]float64, n+9)
			normDraws(r, u, v)
			want := make([]float64, n+9)
			copy(want, u)
			boxMullerGeneric(want[:n], u, v)
			run(u[:n], u, v)
			sameBits64(t, fmt.Sprintf("row of %d in place", n), u, want)
		}
	}
	for _, k := range normKernels {
		t.Run(k.name, func(t *testing.T) {
			if !k.has {
				t.Skipf("this CPU has no %s", k.name)
			}
			check(t, k.run)
		})
	}
	t.Run("dispatch", func(t *testing.T) {
		check(t, boxMuller)
		// One normal per element, drawn as the per-variate Box–Muller loop
		// draws it: u again while u ≤ 1e-12, then v.
		r, ref := NewRNG(7), NewRNG(7)
		for _, n := range []int{1, 7, 128, 1000} {
			got, want := make([]float64, n), make([]float64, n)
			r.NormFloat64s(got, make([]float64, n))
			for i := range want {
				for {
					u := ref.Float64()
					if u > 1e-12 {
						want[i] = math.Sqrt(-2*math.Log(u)) * math.Cos(2*math.Pi*ref.Float64())
						break
					}
				}
			}
			sameBits64(t, fmt.Sprintf("NormFloat64s of %d", n), got, want)
		}
		if r.State() != ref.State() {
			t.Fatal("NormFloat64s left the stream at another state than the per-variate loop")
		}
	})
}

// boxMuller checks its lengths before any kernel reads them.
func TestBoxMullerPanicsOnShortInput(t *testing.T) {
	for name, call := range map[string]func(){
		"short u": func() { boxMuller(make([]float64, 4), make([]float64, 3), make([]float64, 4)) },
		"short v": func() { boxMuller(make([]float64, 4), make([]float64, 4), make([]float64, 3)) },
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
