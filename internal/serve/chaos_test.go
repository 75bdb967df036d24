package serve

import (
	"context"
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wisegraph/internal/fault"
	"wisegraph/internal/nn"
	"wisegraph/internal/tensor"
)

// The chaos battery: drive the serving engine under injected batch faults
// and stragglers and prove the accounting invariant survives — every
// admitted request is answered exactly once (admitted = completed +
// canceled, in-flight drains to zero), nothing is silently dropped, and
// client-visible failures are the injector's, never the engine's.

// chaosInvariant asserts the drain invariant after load has settled.
func chaosInvariant(t *testing.T, e *Engine) Snapshot {
	t.Helper()
	waitInFlightZero(t, e)
	st := e.Stats()
	if st.Admitted != st.Completed+st.Canceled {
		t.Fatalf("accounting leak: admitted %d != completed %d + canceled %d",
			st.Admitted, st.Completed, st.Canceled)
	}
	if st.InFlight != 0 {
		t.Fatalf("in-flight %d after drain", st.InFlight)
	}
	return st
}

func TestChaosDrainInvariantUnderFaults(t *testing.T) {
	const vertices = 80
	ds := testDataset(t, vertices, 320, 10, 4, 1, 2)
	e := testEngine(t, ds, testModel(t, ds, nn.SAGE), Options{
		Workers: 2, BatchCap: 8, QueueDepth: 64, Seed: 5,
	})
	sched := &fault.Schedule{
		Seed: 1234,
		Sites: map[string]fault.SiteConfig{
			fault.SiteServeBatch: {ErrorRate: 0.08, LatencyRate: 0.15, Delay: 2 * time.Millisecond},
		},
	}
	const clients, perClient = 8, 40
	var ok, injected, shed, expired, other atomic.Int64
	fault.WithSchedule(sched, func() {
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				rng := tensor.NewRNG(uint64(c)*77 + 1)
				for i := 0; i < perClient; i++ {
					ctx := context.Background()
					cancel := context.CancelFunc(func() {})
					if i%10 == 9 {
						// A slice of requests with near-expired deadlines
						// exercises the canceled leg of the invariant.
						ctx, cancel = context.WithTimeout(ctx, 50*time.Microsecond)
					}
					_, err := e.Predict(ctx, []int32{int32(rng.Intn(vertices))}, false)
					cancel()
					switch {
					case err == nil:
						ok.Add(1)
					case errors.Is(err, ErrOverloaded):
						shed.Add(1)
					case errors.Is(err, context.DeadlineExceeded):
						expired.Add(1)
					case fault.IsInjected(err):
						injected.Add(1)
					default:
						other.Add(1)
						t.Errorf("unexpected error class: %v", err)
					}
				}
			}(c)
		}
		wg.Wait()

		st := chaosInvariant(t, e)
		if got := ok.Load() + injected.Load() + shed.Load() + expired.Load() + other.Load(); got != clients*perClient {
			t.Fatalf("request outcomes %d, want %d — a request vanished", got, clients*perClient)
		}
		if st.BatchFaults == 0 {
			t.Fatal("schedule injected no batch faults; chaos test proves nothing")
		}
		if st.DegradedRetries == 0 {
			t.Fatal("batch faults fired but no half-batch degradation ran")
		}
		if ok.Load() == 0 {
			t.Fatal("no request succeeded under a mild fault schedule")
		}
	})
}

// TestChaosTotalFailureStillAccounted pins the worst case: a 100% batch
// error rate means every batch and both degraded halves fail, so every
// admitted request must come back with an injected error — completed,
// counted, never stuck.
func TestChaosTotalFailureStillAccounted(t *testing.T) {
	const vertices = 40
	ds := testDataset(t, vertices, 160, 8, 3, 1, 3)
	e := testEngine(t, ds, testModel(t, ds, nn.SAGE), Options{
		Workers: 1, BatchCap: 4, Seed: 6,
	})
	fault.WithSchedule(&fault.Schedule{
		Seed:  7,
		Sites: map[string]fault.SiteConfig{fault.SiteServeBatch: {ErrorRate: 1}},
	}, func() {
		var wg sync.WaitGroup
		var injected, other atomic.Int64
		for c := 0; c < 4; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := 0; i < 10; i++ {
					_, err := e.Predict(context.Background(), []int32{int32((c*10 + i) % vertices)}, false)
					if fault.IsInjected(err) {
						injected.Add(1)
					} else {
						other.Add(1)
					}
				}
			}(c)
		}
		wg.Wait()
		st := chaosInvariant(t, e)
		if other.Load() != 0 {
			t.Fatalf("%d requests did not fail with the injected error", other.Load())
		}
		if injected.Load() != 40 {
			t.Fatalf("%d injected failures, want 40", injected.Load())
		}
		if st.Completed != st.Admitted {
			t.Fatalf("completed %d != admitted %d under total failure", st.Completed, st.Admitted)
		}
	})
}

// TestChaosBatchLatencyIsWaitedOut pins what a serve.batch straggler
// means: the batch really waits the spike out and then runs — every
// request completes with the logits an unfaulted engine returns, nothing
// takes the degradation path, and no request returns sooner than the
// shortest spike the schedule can draw.
func TestChaosBatchLatencyIsWaitedOut(t *testing.T) {
	const vertices, clients, perClient = 40, 4, 5
	ds := testDataset(t, vertices, 160, 8, 3, 1, 4)
	e := testEngine(t, ds, testModel(t, ds, nn.SAGE), Options{
		Workers: 1, BatchCap: 4, Seed: 8,
	})
	want := make([][]float32, clients*perClient)
	for n := range want {
		pred, err := e.Predict(context.Background(), []int32{int32(n)}, true)
		if err != nil {
			t.Fatalf("unfaulted Predict(%d): %v", n, err)
		}
		want[n] = pred.Logits[0]
	}
	clean := e.Stats()

	sched, err := fault.Parse("seed=21;serve.batch:latency=1,delay=20ms")
	if err != nil {
		t.Fatal(err)
	}
	// Jitter spans [0.5, 1.5)x the configured spike.
	const shortest = 10 * time.Millisecond
	fault.WithSchedule(sched, func() {
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := 0; i < perClient; i++ {
					n := c*perClient + i
					start := time.Now()
					pred, err := e.Predict(context.Background(), []int32{int32(n)}, true)
					if err != nil {
						t.Errorf("Predict(%d) under a latency-only schedule: %v", n, err)
						continue
					}
					if took := time.Since(start); took < shortest {
						t.Errorf("Predict(%d) returned in %v; its batch did not wait out a >= %v spike", n, took, shortest)
					}
					for j, v := range pred.Logits[0] {
						if math.Float32bits(v) != math.Float32bits(want[n][j]) {
							t.Errorf("node %d logit[%d] = %v, unfaulted %v", n, j, v, want[n][j])
						}
					}
				}
			}(c)
		}
		wg.Wait()
		st := chaosInvariant(t, e)
		if st.Completed-clean.Completed != clients*perClient {
			t.Fatalf("completed %d of %d requests", st.Completed-clean.Completed, clients*perClient)
		}
		if st.DegradedRetries != 0 || st.BatchFaults != 0 {
			t.Fatalf("a straggler took the failure path: %d degraded retries, %d batch faults",
				st.DegradedRetries, st.BatchFaults)
		}
		if got := fault.Snapshot()[fault.SiteServeBatch].Latencies; got == 0 {
			t.Fatal("schedule injected no latency fault; the test proves nothing")
		}
	})
}
