package parallel

import (
	"runtime"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestForVisitsEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 7, 100, 10000} {
		counts := make([]int32, n)
		For(n, 3, func(i int) { atomic.AddInt32(&counts[i], 1) })
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, c)
			}
		}
	}
}

func TestForRangeCoversExactly(t *testing.T) {
	n := 1003
	var total int64
	ForRange(n, 17, func(lo, hi int) {
		if lo < 0 || hi > n || lo >= hi {
			t.Errorf("bad chunk [%d,%d)", lo, hi)
		}
		atomic.AddInt64(&total, int64(hi-lo))
	})
	if total != int64(n) {
		t.Fatalf("covered %d of %d", total, n)
	}
}

// pinProcs sets GOMAXPROCS — the one owner of the worker count — for the
// rest of the test and restores it on exit.
func pinProcs(t *testing.T, n int) {
	t.Helper()
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

func TestForRangeSingleWorkerPath(t *testing.T) {
	pinProcs(t, 1)
	sum := 0 // no atomics needed: single worker
	ForRange(100, 10, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			sum += i
		}
	})
	if sum != 4950 {
		t.Fatalf("sum = %d", sum)
	}
}

func TestWorkers(t *testing.T) {
	if Workers(0, 1) != 0 {
		t.Fatal("zero work needs zero workers")
	}
	if w := Workers(5, 10); w != 1 {
		t.Fatalf("one chunk → one worker, got %d", w)
	}
	if w := Workers(1000000, 1); w != MaxWorkers() {
		t.Fatalf("big work should use all workers, got %d", w)
	}
}

// Property: parallel sum equals sequential sum for arbitrary slices.
func TestPropParallelSum(t *testing.T) {
	f := func(xs []int32, grainSmall uint8) bool {
		grain := int(grainSmall%32) + 1
		var want int64
		for _, x := range xs {
			want += int64(x)
		}
		var got int64
		For(len(xs), grain, func(i int) { atomic.AddInt64(&got, int64(xs[i])) })
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// The worker count is the runtime's, read when the loop starts: a process
// that narrows itself to one P after package init (the benchmark does, in
// main) must get the sequential path — one call over the whole range, no
// pool job — and not an init-time snapshot of the box's vCPU count.
func TestWidthFollowsGOMAXPROCS(t *testing.T) {
	pinProcs(t, 4)
	if w := Workers(1<<20, 1); w != 4 {
		t.Fatalf("GOMAXPROCS=4: Workers = %d, want 4", w)
	}
	runtime.GOMAXPROCS(1)
	if w := Workers(1<<20, 1); w != 1 {
		t.Fatalf("GOMAXPROCS=1: Workers = %d, want 1", w)
	}
	queued := len(pool.tasks)
	calls := 0
	ForRange(1<<20, 1, func(lo, hi int) {
		calls++
		if lo != 0 || hi != 1<<20 {
			t.Errorf("chunk [%d,%d), want the whole range", lo, hi)
		}
		// Idle helpers may still be draining jobs of earlier loops, so the
		// queue can shrink; a one-worker loop must not grow it.
		if n := len(pool.tasks); n > queued {
			t.Errorf("%d pool jobs queued during a one-worker loop, was %d before it", n, queued)
		}
	})
	if calls != 1 {
		t.Fatalf("fn called %d times, want 1", calls)
	}
}

func TestForRangeMultiWorkerPath(t *testing.T) {
	pinProcs(t, 4)
	n := 997
	var total int64
	seen := make([]int32, n)
	ForRange(n, 7, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&seen[i], 1)
		}
		atomic.AddInt64(&total, int64(hi-lo))
	})
	if total != int64(n) {
		t.Fatalf("multi-worker covered %d of %d", total, n)
	}
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("index %d visited %d times", i, c)
		}
	}
}
