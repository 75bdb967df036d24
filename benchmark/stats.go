package main

import (
	"math"
	"sort"
)

// quantile is the exact nearest-rank quantile of xs: the smallest sample
// with at least a fraction q of the samples at or below it. xs must be
// sorted ascending and non-empty. The benchmark never reads latencies from
// serve.Histogram — its power-of-two buckets quantize every p99 onto
// 16.76/33.5 ms.
func quantile(sorted []float64, q float64) float64 {
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(rank, 0), len(sorted)-1)]
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of an unsorted sample; even counts average the two middle values
// so a median of three set-ups or of an even window count is well defined.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// windowed is one figure per non-empty window of a phase.
type windowed struct {
	window []int // which window each value belongs to
	vals   []float64
}

// windowQuantiles splits the samples into `windows` equal spans of the
// phase by due time and returns quantile q of each non-empty span. due and
// lat are parallel; due need not be sorted.
func windowQuantiles(due, lat []float64, phase float64, windows int, q float64) windowed {
	buckets := make([][]float64, windows)
	for i, d := range due {
		w := min(int(d/phase*float64(windows)), windows-1)
		buckets[w] = append(buckets[w], lat[i])
	}
	var out windowed
	for w, b := range buckets {
		if len(b) > 0 {
			sort.Float64s(b)
			out.window, out.vals = append(out.window, w), append(out.vals, quantile(b, q))
		}
	}
	return out
}

// tally is the failure accounting behind the result line's attempted and
// failed: everything sent or checked is attempted; an error, a shed, a
// missed deadline and a failed output check each count as one failure.
type tally struct {
	attempted, failed uint64
	// overLimit counts paced responses slower than the latency limit. They
	// are answered correctly, so they are not in failed; load.fail_frac
	// counts them as missing the limit.
	overLimit uint64
	// wrong counts failed output checks alone: any makes the run incorrect
	// (non-zero exit), while a slow or shed request only raises failed.
	wrong uint64
}

func (t *tally) add(attempted, failed uint64) {
	t.attempted += attempted
	t.failed += failed
}

func (t *tally) check(ok bool) {
	t.attempted++
	if !ok {
		t.failed++
		t.wrong++
	}
}

func (t tally) failFrac() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed+t.overLimit) / float64(t.attempted)
}

// quartileSpread is the contract's steadiness figure: the distance between
// the first and third quartile as a share of the median, with quartiles as
// Python's statistics.quantiles(values, n=4) gives them. Needs two values.
func quartileSpread(xs []float64) (q1, med, q3, spread float64) {
	s := sortedCopy(xs)
	n := len(s)
	at := func(i int) float64 {
		m := n + 1
		j := max(1, min(i*m/4, n-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	q1, med, q3 = at(1), at(2), at(3)
	if med != 0 {
		spread = (q3 - q1) / math.Abs(med)
	}
	return
}

// aaVerdict judges one metric of an A/A comparison from the relative
// difference of the two set medians and the wider of the two within-set
// quartile spreads. It is two-sided — the same code reading better by more
// than the bound is as much a disagreement as reading worse — and written so
// that a NaN difference (a median of 0) disagrees too.
func aaVerdict(diff, spread, bound float64) string {
	switch {
	case !(math.Abs(diff) <= bound):
		return "disagree"
	case spread > bound:
		return "unresolved"
	}
	return "agree"
}
