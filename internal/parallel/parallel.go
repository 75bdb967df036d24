// Package parallel provides small helpers for data-parallel loops across
// CPU workers. It is the execution backend for the simulated accelerator:
// kernels run for real on goroutines while the device model accounts time.
//
// Loops are executed by a persistent worker pool (see pool.go) rather
// than per-call goroutines, so a training iteration that issues thousands
// of small parallel regions pays no spawn cost on any of them.
package parallel

import "runtime"

// MaxWorkers returns the worker count a loop may use: the number of Ps
// the runtime schedules goroutines on, read when the loop starts. The
// runtime owns the number (GOMAXPROCS, by environment or by call), so a
// process that narrows itself is narrow here too.
func MaxWorkers() int { return runtime.GOMAXPROCS(0) }

// For runs fn(i) for every i in [0, n) across up to MaxWorkers workers.
// grain is the minimum number of iterations per task; use a larger grain
// for cheap bodies to amortize scheduling. fn must be safe for concurrent
// calls with distinct i.
func For(n, grain int, fn func(i int)) {
	ForRange(n, grain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			fn(i)
		}
	})
}

// ForRange splits [0, n) into contiguous chunks of at least grain
// iterations and runs fn(lo, hi) for each chunk across up to MaxWorkers
// workers. Chunks are claimed dynamically off an atomic cursor, which
// balances skewed per-index costs; the calling goroutine participates,
// so the loop makes progress even when every pool worker is busy.
func ForRange(n, grain int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	workers := Workers(n, grain)
	if workers == 1 {
		fn(0, n)
		return
	}
	runOnPool(n, grain, (n+grain-1)/grain, workers-1, fn)
}

// Workers reports the effective worker count For would use for n
// iterations with the given grain.
func Workers(n, grain int) int {
	if n <= 0 {
		return 0
	}
	if grain < 1 {
		grain = 1
	}
	w := MaxWorkers()
	chunks := (n + grain - 1) / grain
	if chunks < w {
		w = chunks
	}
	return w
}
