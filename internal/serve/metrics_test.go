package serve

import (
	"testing"
	"time"

	"wisegraph/internal/obs"
)

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	// 90 observations of 1µs (bucket 10, upper bound 1024ns) and 10 of
	// 1ms (bucket 20, upper bound 2^20 ns).
	for i := 0; i < 90; i++ {
		h.Observe(time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(time.Millisecond)
	}
	if got := h.Count(); got != 100 {
		t.Fatalf("Count = %d, want 100", got)
	}
	wantMean := time.Duration((90*1000 + 10*1_000_000) / 100)
	if got := h.Mean(); got != wantMean {
		t.Errorf("Mean = %v, want %v", got, wantMean)
	}
	// Interpolated quantiles land inside their bucket, not on its upper
	// bound (the old estimator pinned p50 to 1024ns — up to 2× high).
	if got := h.Quantile(0.50); got < 512*time.Nanosecond || got >= 1024*time.Nanosecond {
		t.Errorf("p50 = %v, want within [512ns, 1024ns)", got)
	}
	if got := h.Quantile(0.99); got < time.Duration(1<<19) || got > time.Duration(1<<20) {
		t.Errorf("p99 = %v, want within [%v, %v]", got, time.Duration(1<<19), time.Duration(1<<20))
	}
	if h.Quantile(0.5) > h.Quantile(0.99) {
		t.Error("p50 > p99")
	}
}

func TestHistogramEdgeCases(t *testing.T) {
	var h Histogram
	if got := h.Quantile(0.5); got != 0 {
		t.Errorf("empty histogram quantile = %v, want 0", got)
	}
	h.Observe(0)
	h.Observe(-time.Second) // clamped to 0
	if got := h.Quantile(0.5); got != 1 {
		t.Errorf("zero-duration quantile = %v, want 1ns", got)
	}
	// Far beyond the top bucket still lands in the last bucket; the
	// interpolated estimate stays inside it.
	var h2 Histogram
	h2.Observe(time.Duration(1<<62) + 5)
	lo := time.Duration(1) << (obs.NumBuckets - 2)
	hi := time.Duration(1) << (obs.NumBuckets - 1)
	if got := h2.Quantile(0.5); got < lo || got > hi {
		t.Errorf("overflow quantile = %v, want within [%v, %v]", got, lo, hi)
	}
}

func TestStatsSnapshot(t *testing.T) {
	s := newStats(4)
	s.recordBatch(2)
	s.recordBatch(2)
	s.recordBatch(2)
	s.recordBatch(4)
	s.recordBatch(99) // clamped to the cap bucket
	s.recordDone(time.Millisecond)
	s.recordDone(3 * time.Millisecond)
	s.admitted.Add(2)

	snap := s.snapshot(1, 3)
	if snap.Batches != 5 {
		t.Errorf("Batches = %d, want 5", snap.Batches)
	}
	if snap.BatchSizeDist[2] != 3 || snap.BatchSizeDist[4] != 2 {
		t.Errorf("BatchSizeDist = %v, want {2:3, 4:2}", snap.BatchSizeDist)
	}
	wantAvg := float64(2*3+4*2) / 5
	if snap.AvgBatchSize != wantAvg {
		t.Errorf("AvgBatchSize = %v, want %v", snap.AvgBatchSize, wantAvg)
	}
	if snap.Completed != 2 || snap.Admitted != 2 {
		t.Errorf("Completed/Admitted = %d/%d, want 2/2", snap.Completed, snap.Admitted)
	}
	if snap.InFlight != 1 || snap.QueueDepth != 3 {
		t.Errorf("InFlight/QueueDepth = %d/%d, want 1/3", snap.InFlight, snap.QueueDepth)
	}
	if snap.LatencyMeanMs <= 0 || snap.LatencyP99Ms < snap.LatencyP50Ms {
		t.Errorf("latency stats inconsistent: %+v", snap)
	}
}
