package main

import (
	"math"
	"sort"
	"testing"
	"time"

	"wisegraph/internal/tensor"
)

// The exact-quantile helper against an oracle that counts: the answer is
// the smallest sample with at least a share q of the samples at or below it.
func TestQuantileAgainstOracle(t *testing.T) {
	rng := tensor.NewRNG(7)
	for _, n := range []int{1, 2, 3, 10, 99, 100, 101, 1000} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = math.Floor(rng.Float64() * 50) // ties on purpose
		}
		s := sortedCopy(xs)
		for _, q := range []float64{0.01, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
			want := math.NaN()
			for _, x := range s {
				atOrBelow := sort.SearchFloat64s(s, math.Nextafter(x, math.Inf(1)))
				if float64(atOrBelow) >= q*float64(n) {
					want = x
					break
				}
			}
			if got := quantile(s, q); got != want {
				t.Fatalf("n=%d q=%v: quantile %v, oracle %v", n, q, got, want)
			}
		}
	}
}

// One scheduler hiccup lands in one window and must not own the tail.
func TestWindowMedianIgnoresOneBadWindow(t *testing.T) {
	var due, lat []float64
	for i := 0; i < 3000; i++ {
		due = append(due, float64(i)) // 3000 ms phase, one sample per ms
		l := 2.0
		if i%50 == 49 {
			l = 5 // every window's honest p99
		}
		if i >= 1000 && i < 1100 {
			l = 400 // a 100 ms stall in the middle window
		}
		lat = append(lat, l)
	}
	if got := median(windowQuantiles(due, lat, 3000, 3, 0.99).vals); got != 5 {
		t.Fatalf("median window p99 = %v, want 5 (the stall owns one window of three)", got)
	}
	if whole := quantile(sortedCopy(lat), 0.99); whole != 400 {
		t.Fatalf("whole-phase p99 = %v: the fixture no longer shows what the windows protect against", whole)
	}
}

// Quartiles as Python's statistics.quantiles(values, n=4) gives them.
func TestQuartileSpreadMatchesPython(t *testing.T) {
	q1, med, q3, spread := quartileSpread([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
	if want := 5.5 / 5.5; spread != want {
		t.Fatalf("spread %v, want %v", spread, want)
	}
	// statistics.quantiles([3.1, 2.9, 3.0], n=4) == [2.9, 3.0, 3.1]
	if q1, _, q3, _ := quartileSpread([]float64{3.1, 2.9, 3.0}); q1 != 2.9 || q3 != 3.1 {
		t.Fatalf("three values: q1 %v q3 %v, want 2.9 3.1", q1, q3)
	}
}

func TestTallyArithmetic(t *testing.T) {
	var ta tally
	ta.add(1000, 3)  // 2 shed + 1 error out of 1000 sent
	ta.overLimit = 5 // completed and correct, but over the latency limit
	ta.check(true)
	ta.check(false)
	if ta.attempted != 1002 || ta.failed != 4 || ta.wrong != 1 {
		t.Fatalf("tally %+v, want attempted 1002 failed 4 wrong 1", ta)
	}
	if got, want := ta.failFrac(), 9.0/1002; got != want {
		t.Fatalf("fail_frac %v, want %v", got, want)
	}
}

func TestAAVerdict(t *testing.T) {
	for _, c := range []struct {
		diff, spread float64
		want         string
	}{
		{0.05, 0.08, "agree"},
		{0.30, 0.08, "disagree"},
		{-0.30, 0.08, "disagree"}, // better by more than the bound is no agreement either
		{0.05, 0.27, "unresolved"},
		{math.NaN(), 0.01, "disagree"},
		{math.Inf(1), 0.01, "disagree"},
	} {
		if got := aaVerdict(c.diff, c.spread, 0.25); got != c.want {
			t.Errorf("diff %v spread %v: %s, want %s", c.diff, c.spread, got, c.want)
		}
	}
}

// A window's slowdown is the median of the reference samples taken in it;
// a window a freeze left with fewer than three falls back to the phase, and
// a phase with none reads 1.
func TestSlowdownPerWindow(t *testing.T) {
	sp := speedSamples{
		offMs: []float64{10, 60, 110, 1010, 1060, 1110, 2500},
		durMs: []float64{refNominalMs, refNominalMs, 3 * refNominalMs, 2 * refNominalMs, 2 * refNominalMs, 2 * refNominalMs, 9 * refNominalMs},
	}
	if got := sp.slowdown(0, 1000); got != 1 {
		t.Errorf("first window: slowdown %v, want 1 (the median ignores one slow sample)", got)
	}
	if got := sp.slowdown(1000, 2000); got != 2 {
		t.Errorf("second window: slowdown %v, want 2", got)
	}
	if got, want := sp.slowdown(2000, 3000), sp.overall(); got != want || want != 2 {
		t.Errorf("one-sample window: slowdown %v, phase %v, want both 2", got, want)
	}
	if got := (speedSamples{}).slowdown(0, 1000); got != 1 {
		t.Errorf("no samples: slowdown %v, want 1", got)
	}
	if got, want := sp.costMs(1000, 2000), 1.5*6*refNominalMs; math.Abs(got-want) > 1e-12 {
		t.Errorf("speedometer cost %v ms, want %v", got, want)
	}
}

// Only what a latency holds beyond the fill delay scales with the box.
func TestLatencyAtRefSpeed(t *testing.T) {
	if got := latencyAtRefSpeed(fillDelayMs, 1.7); got != fillDelayMs {
		t.Errorf("a latency that is all fill delay reads %v at reference speed, want %v", got, fillDelayMs)
	}
	if got, want := latencyAtRefSpeed(fillDelayMs+6, 1.5), fillDelayMs+4; got != want {
		t.Errorf("fill + 6 ms on a box 1.5× slow reads %v, want %v", got, want)
	}
	if got := latencyAtRefSpeed(7.25, 1); got != 7.25 {
		t.Errorf("nominal speed must leave a latency as measured, got %v", got)
	}
}

// The speedometer samples while the work runs and stops when told.
func TestSpeedometerSamples(t *testing.T) {
	spd := startSpeedometer()
	time.Sleep(4 * refEvery)
	sp := spd.stop()
	if len(sp.durMs) < 2 || len(sp.durMs) != len(sp.offMs) {
		t.Fatalf("%d samples, %d offsets after %v", len(sp.durMs), len(sp.offMs), 4*refEvery)
	}
	for i, d := range sp.durMs {
		if d <= 0 {
			t.Fatalf("sample %d took %v ms", i, d)
		}
	}
}
