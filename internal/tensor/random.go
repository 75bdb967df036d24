package tensor

import (
	"fmt"
	"math"
)

// RNG is a small deterministic xorshift64* generator. All randomness in the
// repository flows through explicit RNG values so every experiment is
// reproducible from its seed.
type RNG struct{ state uint64 }

// NewRNG returns a generator seeded with seed (0 is remapped).
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &RNG{state: seed}
}

// State returns the generator's internal state, for checkpointing: a
// generator restored with SetState continues the exact same stream, which
// is what makes train-resume trajectories bit-identical.
func (r *RNG) State() uint64 { return r.state }

// SetState restores a state previously captured with State.
func (r *RNG) SetState(s uint64) {
	if s == 0 {
		s = 0x9e3779b97f4a7c15
	}
	r.state = s
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545f4914f6cdd1d
}

// Intn returns a pseudo-random int in [0, n).
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("tensor: RNG.Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a pseudo-random float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// Float32 returns a pseudo-random float32 in [0, 1).
func (r *RNG) Float32() float32 { return float32(r.Float64()) }

// NormFloat64s fills dst with standard normal variates (Box–Muller): for
// each element it draws u, drawing it again while u ≤ 1e-12, then v, and
// takes Sqrt(-2·Log(u))·Cos(2π·v). All of dst's draws come first, in that
// stream order; boxMuller then computes the row. v is scratch, at least as
// long as dst.
func (r *RNG) NormFloat64s(dst, v []float64) {
	v = v[:len(dst)]
	for i := range dst {
		u := r.Float64()
		for u <= 1e-12 {
			u = r.Float64()
		}
		dst[i], v[i] = u, r.Float64()
	}
	boxMuller(dst, dst, v)
}

// boxMuller sets dst[i] = Sqrt(-2·Log(u[i]))·Cos(2π·v[i]) for every
// i < len(dst), for 0 < u[i] < 1 and 0 ≤ v[i] < 1; dst may be u or v. On
// amd64 with AVX-512 it runs boxmuller_amd64.s, which performs math.Log's
// and math.Cos's IEEE operations in their order, eight lanes at a time, so
// its bits are boxMullerGeneric's (DESIGN "The one vector kernel").
func boxMuller(dst, u, v []float64) {
	if len(u) < len(dst) || len(v) < len(dst) {
		panic(fmt.Sprintf("tensor: boxMuller dst[%d] from u[%d] v[%d]", len(dst), len(u), len(v)))
	}
	if useAVX512 {
		boxMullerAVX512(dst, u, v)
		return
	}
	boxMullerGeneric(dst, u, v)
}

// boxMullerGeneric is boxMuller one element at a time through package
// math: the path on a CPU without AVX-512 and the test oracle.
func boxMullerGeneric(dst, u, v []float64) {
	for i := range dst {
		dst[i] = math.Sqrt(-2*math.Log(u[i])) * math.Cos(2*math.Pi*v[i])
	}
}

// Uniform fills t with values drawn uniformly from [lo, hi).
func Uniform(t *Tensor, rng *RNG, lo, hi float32) *Tensor {
	span := hi - lo
	for i := range t.data {
		// The conversion rounds the product before the add, so arm64 cannot
		// fuse the two into one FMADD and initial weights are the same bits
		// on every architecture (as in kernel.go).
		t.data[i] = lo + float32(span*rng.Float32())
	}
	return t
}

// XavierUniform fills a weight tensor using Glorot/Xavier initialization
// with fan-in = second-to-last dimension and fan-out = last dimension.
func XavierUniform(t *Tensor, rng *RNG) *Tensor {
	d := t.Dims()
	fanIn, fanOut := 1, 1
	if d >= 2 {
		fanIn = t.Dim(d - 2)
		fanOut = t.Dim(d - 1)
	} else if d == 1 {
		fanOut = t.Dim(0)
	}
	limit := float32(math.Sqrt(6.0 / float64(fanIn+fanOut)))
	return Uniform(t, rng, -limit, limit)
}
