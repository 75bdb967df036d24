package tensor

import "math"

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

// NormFloat64 returns a standard normal variate (Box–Muller).
func (r *RNG) NormFloat64() float64 {
	for {
		u := r.Float64()
		if u > 1e-12 {
			v := r.Float64()
			return math.Sqrt(-2*math.Log(u)) * math.Cos(2*math.Pi*v)
		}
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
