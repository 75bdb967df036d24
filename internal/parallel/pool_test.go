package parallel

import (
	"sync"
	"sync/atomic"
	"testing"
)

// Nested parallel loops must complete (chunk-counted completion means the
// caller is self-sufficient even if every pool worker is busy).
func TestNestedForRange(t *testing.T) {
	pinProcs(t, 4)
	const outer, inner = 37, 53
	var total int64
	For(outer, 1, func(i int) {
		For(inner, 1, func(j int) {
			atomic.AddInt64(&total, 1)
		})
	})
	if total != outer*inner {
		t.Fatalf("nested loops ran %d of %d bodies", total, outer*inner)
	}
}

// Deeply nested loops from many concurrent callers must not deadlock.
func TestConcurrentCallersWithNesting(t *testing.T) {
	pinProcs(t, 3)
	var wg sync.WaitGroup
	var total int64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ForRange(100, 5, func(lo, hi int) {
				For(hi-lo, 1, func(i int) {
					atomic.AddInt64(&total, 1)
				})
			})
		}()
	}
	wg.Wait()
	if total != 8*100 {
		t.Fatalf("ran %d of %d bodies", total, 8*100)
	}
}

// The pool must respect grain boundaries and cover every index exactly
// once under a worker count far above GOMAXPROCS.
func TestManyWorkersOversubscribed(t *testing.T) {
	pinProcs(t, 64)
	n := 10007
	seen := make([]int32, n)
	ForRange(n, 11, func(lo, hi int) {
		if lo < 0 || hi > n || lo >= hi || (hi-lo) > 11 {
			t.Errorf("bad chunk [%d,%d)", lo, hi)
		}
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&seen[i], 1)
		}
	})
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("index %d visited %d times", i, c)
		}
	}
}
