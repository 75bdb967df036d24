package parallel

import (
	"sync"
	"sync/atomic"
)

// The persistent worker pool. Workers are spawned lazily the first time a
// parallel loop wants help and then live for the life of the process,
// blocked on the task channel when idle. A ForRange call publishes one
// job; helpers and the caller claim fixed-size chunks off the job's
// atomic cursor until none remain.
//
// Completion is counted per chunk (not per helper), so a loop finishes
// correctly even if no helper ever picks the job up — the caller drains
// the cursor itself. This also makes nested parallel loops safe: a worker
// executing a chunk that itself calls ForRange cannot deadlock, because
// every caller is self-sufficient.

// job is one parallel loop dispatched to the pool.
type job struct {
	fn     func(lo, hi int)
	n      int
	grain  int
	chunks int
	cursor atomic.Int64
	wg     sync.WaitGroup // counts unfinished chunks
}

// run claims and executes chunks until the cursor passes the end. Safe to
// call from any number of goroutines concurrently.
func (j *job) run() {
	for {
		c := int(j.cursor.Add(1)) - 1
		if c >= j.chunks {
			return
		}
		lo := c * j.grain
		hi := lo + j.grain
		if hi > j.n {
			hi = j.n
		}
		j.fn(lo, hi)
		j.wg.Done()
	}
}

// poolCap bounds the number of pool goroutines. Idle workers cost only a
// blocked goroutine, but a runaway GOMAXPROCS should not spawn
// unboundedly.
const poolCap = 256

var pool = struct {
	tasks   chan *job
	spawned atomic.Int64
}{
	// The buffer bounds outstanding help requests; submission never
	// blocks (a full channel just means less help for that loop).
	tasks: make(chan *job, 4*poolCap),
}

// ensureWorkers grows the pool to at least k goroutines (capped).
func ensureWorkers(k int) {
	if k > poolCap {
		k = poolCap
	}
	for {
		cur := pool.spawned.Load()
		if cur >= int64(k) {
			return
		}
		if pool.spawned.CompareAndSwap(cur, cur+1) {
			go func() {
				for j := range pool.tasks {
					j.run()
				}
			}()
		}
	}
}

// runOnPool executes the loop with up to `helpers` pool workers assisting
// the calling goroutine.
func runOnPool(n, grain, chunks, helpers int, fn func(lo, hi int)) {
	j := &job{fn: fn, n: n, grain: grain, chunks: chunks}
	j.wg.Add(chunks)
	ensureWorkers(helpers)
	for i := 0; i < helpers; i++ {
		select {
		case pool.tasks <- j:
		default:
			i = helpers // queue full: proceed with the help already enqueued
		}
	}
	j.run()
	// Chunks may still be executing in helpers; wait for the last one.
	j.wg.Wait()
}
