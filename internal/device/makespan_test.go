package device

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
)

// heapMakespan is Makespan one heap step per item, the definition the run
// path must reproduce.
func heapMakespan(times []float64, units int) float64 {
	if units < 1 {
		units = 1
	}
	if len(times) == 0 {
		return 0
	}
	h := make([]float64, units)
	for _, t := range times {
		h[0] += t
		siftDown(h)
	}
	var max float64
	for _, v := range h {
		if v > max {
			max = v
		}
	}
	return max
}

// TestMakespanRunsBitwise holds Makespan to the per-item heap, bit for bit,
// on random times, all-equal times, equal runs between unequal items (runs
// shorter and longer than the unit count, starting from spread loads),
// zero and subnormal times, and, on the fallback, negative and NaN times;
// at 1 and 108 units and at more units than items.
func TestMakespanRunsBitwise(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 47))
	sub := math.SmallestNonzeroFloat64
	lists := map[string][]float64{}
	random := make([]float64, 5000)
	for i := range random {
		random[i] = rng.ExpFloat64() * 1e-6
	}
	lists["random"] = random
	equal := make([]float64, 230_001)
	for i := range equal {
		equal[i] = 3.7e-7
	}
	lists["equal"] = equal
	var runs []float64
	for len(runs) < 40_000 {
		x := rng.Float64() * 1e-5
		n := 1 + rng.IntN(400)
		if rng.IntN(4) == 0 {
			x *= 100 // a long item spreads the loads before the next run
		}
		for range n {
			runs = append(runs, x)
		}
		runs = append(runs, rng.Float64()*1e-5)
	}
	lists["runs between unequal items"] = runs
	lists["zeros"] = append(make([]float64, 500), 1, 0, 0, 2)
	var tiny []float64
	for i := range 3000 {
		tiny = append(tiny, sub*float64(1+i/700), 0)
	}
	lists["subnormal"] = append(tiny, 1e-310, 1e-310, 1e-310)
	lists["absorbed"] = append([]float64{1e20}, equal[:1000]...)
	lists["negative and NaN"] = append(append(append([]float64{}, equal[:500]...), -1e-6, math.NaN()), equal[:500]...)
	for name, times := range lists {
		for _, units := range []int{1, 2, 108, len(times) + 5} {
			got, want := Makespan(times, units), heapMakespan(times, units)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%s on %d units: %v (%#016x), per-item heap %v (%#016x)",
					name, units, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
}

// BenchmarkMakespan prices an edge-centric layer's schedule, 230 000 equal
// task times on the A100's 108 units (AR at scale 10), and a random list
// of as many times, which takes the heap.
func BenchmarkMakespan(b *testing.B) {
	const n, units = 230_000, 108
	rng := rand.New(rand.NewPCG(1, 2))
	equal, random := make([]float64, n), make([]float64, n)
	for i := range equal {
		equal[i] = 2.5e-7
		random[i] = rng.ExpFloat64() * 1e-6
	}
	for _, c := range []struct {
		name  string
		times []float64
	}{{"equal", equal}, {"random", random}} {
		b.Run(fmt.Sprintf("%s-%d", c.name, n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Makespan(c.times, units)
			}
		})
	}
}
