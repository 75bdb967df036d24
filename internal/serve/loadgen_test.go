package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wisegraph/internal/nn"
	"wisegraph/internal/tensor"
)

// loadReport is what one closedLoop run counted.
type loadReport struct {
	Completed  uint64
	Shed       uint64 // ErrOverloaded: load the engine refused instead of stalling on
	Errors     uint64 // non-shed failures
	Throughput float64
}

func (r loadReport) String() string {
	return fmt.Sprintf("done=%d shed=%d err=%d qps=%.1f", r.Completed, r.Shed, r.Errors, r.Throughput)
}

// closedLoop drives e in-process with closed-loop load for the two tests
// below: each client asks for one uniformly drawn node, and again as soon
// as it is answered, until dur is up; a shed client backs off 500µs so a
// full queue is bounded retry pressure, not a busy spin.
func closedLoop(e *Engine, clients int, dur time.Duration, seed uint64) loadReport {
	var (
		completed, shed, errs atomic.Uint64
		wg                    sync.WaitGroup
		deadline              = time.Now().Add(dur)
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := tensor.NewRNG(seed ^ (uint64(c+1) * 0x2545f4914f6cdd1d))
			for time.Now().Before(deadline) {
				node := int32(rng.Intn(e.ds.Graph.NumVertices))
				_, err := e.Predict(context.Background(), []int32{node}, false)
				switch {
				case err == nil:
					completed.Add(1)
				case errors.Is(err, ErrOverloaded):
					shed.Add(1)
					time.Sleep(500 * time.Microsecond)
				default:
					errs.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	done := completed.Load()
	return loadReport{
		Completed: done, Shed: shed.Load(), Errors: errs.Load(),
		Throughput: float64(done) / dur.Seconds(),
	}
}

// TestBatchingThroughputAdvantage is the core serving claim: at equal
// worker count, coalescing requests into micro-batches (cap 16) must beat
// one-request-per-forward (cap 1) under concurrent closed-loop load,
// because the per-forward fixed costs — plan reuse partition, graph
// context, kernel dispatch — amortize across the batch. The acceptance
// bar is 2×; the test asserts a conservative 1.3× so CI noise (and -race
// overhead) cannot flake it, while EXPERIMENTS.md records real numbers.
func TestBatchingThroughputAdvantage(t *testing.T) {
	if testing.Short() {
		t.Skip("load test")
	}
	ds := testDataset(t, 80, 320, 16, 8, 1, 1)
	m := testModel(t, ds, nn.SAGE)

	const (
		clients = 16
		dur     = 400 * time.Millisecond
	)
	unbatched := testEngine(t, ds, m, Options{
		Workers: 1, BatchCap: 1, QueueDepth: 64, Seed: 3,
	})
	repUnbatched := closedLoop(unbatched, clients, dur, 11)

	batched := testEngine(t, ds, m, Options{
		Workers: 1, BatchCap: 16, QueueDepth: 64, Seed: 3,
	})
	repBatched := closedLoop(batched, clients, dur, 11)

	t.Logf("cap=1:  %v", repUnbatched)
	t.Logf("cap=16: %v", repBatched)
	if repUnbatched.Completed == 0 || repBatched.Completed == 0 {
		t.Fatal("a configuration completed zero requests")
	}
	if repUnbatched.Errors != 0 || repBatched.Errors != 0 {
		t.Fatalf("load errors: unbatched=%d batched=%d", repUnbatched.Errors, repBatched.Errors)
	}
	if repBatched.Throughput < 1.3*repUnbatched.Throughput {
		t.Fatalf("batching advantage too small: cap16 %.1f qps vs cap1 %.1f qps",
			repBatched.Throughput, repUnbatched.Throughput)
	}
	// The batched engine must actually have coalesced.
	st := batched.Stats()
	if st.AvgBatchSize <= 1.5 {
		t.Errorf("avg batch size %.2f: micro-batching did not coalesce", st.AvgBatchSize)
	}
}

// TestClosedLoopShedsNotStalls overloads a tiny pipeline and checks the
// failure mode is shedding (fast 429-style refusals) rather than
// stalling: completions keep flowing and shed requests are counted.
func TestClosedLoopShedsNotStalls(t *testing.T) {
	if testing.Short() {
		t.Skip("load test")
	}
	ds := testDataset(t, 60, 240, 12, 5, 1, 1)
	e := testEngine(t, ds, testModel(t, ds, nn.SAGE), Options{
		Workers: 1, BatchCap: 1, QueueDepth: 1, Seed: 3,
	})
	// Pace the worker to ~2ms per batch so 24 closed-loop clients offer
	// far more than the service rate (timing alone cannot provoke
	// overload on a single-CPU host).
	e.testHookBatchStart = func() { time.Sleep(2 * time.Millisecond) }
	rep := closedLoop(e, 24, 300*time.Millisecond, 17)
	t.Logf("%v", rep)
	if rep.Completed == 0 {
		t.Fatal("overloaded engine completed nothing (stalled)")
	}
	if rep.Shed == 0 {
		t.Fatal("overloaded engine shed nothing")
	}
	if rep.Errors != 0 {
		t.Fatalf("unexpected errors: %d", rep.Errors)
	}
	if got := e.Stats().Shed; got == 0 {
		t.Fatal("engine stats recorded zero shed")
	}
}
