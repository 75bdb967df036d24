package serve

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wisegraph/internal/nn"
	"wisegraph/internal/obs"
)

// TestCanceledNotCompleted is the regression test for the accounting bug
// where a request whose deadline expired in the queue was counted both as
// canceled AND completed, and its timed-out queue latency was fed into
// the served-latency histogram (inflating p99 under overload — exactly
// when p99 matters). Canceled requests must count once, as canceled, and
// completed + canceled must partition the admitted requests.
func TestCanceledNotCompleted(t *testing.T) {
	ds := testDataset(t, 60, 240, 12, 5, 1, 1)
	e := testEngine(t, ds, testModel(t, ds, nn.SAGE), Options{
		Workers: 1, BatchCap: 4, QueueDepth: 16, Seed: 3,
	})
	release := make(chan struct{})
	var gate sync.Once
	e.testHookBatchStart = func() { <-release } // closed channel passes all later batches

	// One request occupies the worker behind the gate.
	firstErr := make(chan error, 1)
	go func() {
		_, err := e.Predict(context.Background(), []int32{0}, false)
		firstErr <- err
	}()
	waitFor(t, func() bool { return e.Stats().Admitted >= 1 })

	// Four more with deadlines that expire while they wait in the queue.
	const expired = 4
	var wg sync.WaitGroup
	for i := 0; i < expired; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
			defer cancel()
			if _, err := e.Predict(ctx, []int32{int32(i + 1)}, false); !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("queued request %d: got %v, want DeadlineExceeded", i, err)
			}
		}(i)
	}
	wg.Wait() // all four deadlines have fired
	gate.Do(func() { close(release) })
	if err := <-firstErr; err != nil {
		t.Fatalf("gated request: %v", err)
	}
	waitInFlightZero(t, e)

	st := e.Stats()
	if st.Admitted != 1+expired {
		t.Fatalf("admitted = %d, want %d", st.Admitted, 1+expired)
	}
	// The partition invariant: every admitted request is exactly one of
	// completed/canceled (the double-count bug made the sum overshoot).
	if st.Completed+st.Canceled != st.Admitted {
		t.Fatalf("completed %d + canceled %d != admitted %d", st.Completed, st.Canceled, st.Admitted)
	}
	if st.Canceled != expired {
		t.Errorf("canceled = %d, want %d", st.Canceled, expired)
	}
	// The latency histogram saw only the genuinely served requests, so the
	// ≥20ms queue timeouts of the canceled ones cannot inflate p99.
	if got := e.stats.latency.Count(); got != st.Completed {
		t.Errorf("latency histogram count = %d, want completed = %d", got, st.Completed)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition never became true")
}

// holdFirstBatch makes e's first micro-batch stop at its start until the
// returned release is called; held is closed once it has stopped there.
// Every later batch runs straight through.
func holdFirstBatch(e *Engine) (held <-chan struct{}, release func()) {
	h, r := make(chan struct{}), make(chan struct{})
	var calls atomic.Int64
	e.testHookBatchStart = func() {
		if calls.Add(1) == 1 {
			close(h)
			<-r
		}
	}
	return h, func() { close(r) }
}

// predictAll issues one single-node Predict per id concurrently; wait
// returns once every one has answered.
func predictAll(t *testing.T, e *Engine, ids ...int32) (wait func()) {
	var wg sync.WaitGroup
	for _, id := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := e.Predict(context.Background(), []int32{id}, false); err != nil {
				t.Errorf("Predict %d: %v", id, err)
			}
		}()
	}
	return wg.Wait
}

// wantBatches fails unless e ran exactly the batches in sizes (size → count).
func wantBatches(t *testing.T, e *Engine, sizes map[int]uint64) {
	t.Helper()
	st := e.Stats()
	var n uint64
	for size, c := range sizes {
		n += c
		if st.BatchSizeDist[size] != c {
			t.Errorf("%d batches of %d, want %d (dist %v)", st.BatchSizeDist[size], size, c, st.BatchSizeDist)
		}
	}
	if st.Batches != n {
		t.Errorf("batches = %d, want %d (dist %v)", st.Batches, n, st.BatchSizeDist)
	}
}

// TestLoneRequestRunsAtOnce: on an idle engine a lone request is a batch
// of its own — nothing is running, so there is nothing to wait for.
func TestLoneRequestRunsAtOnce(t *testing.T) {
	ds := testDataset(t, 60, 240, 12, 5, 1, 1)
	e := testEngine(t, ds, testModel(t, ds, nn.SAGE), Options{Seed: 3})
	predictAll(t, e, 7)()
	wantBatches(t, e, map[int]uint64{1: 1})
	waitInFlightZero(t, e)
}

// TestBatchFillsWhileOneRuns: while a batch runs, requests keep joining the
// open batch even though a second worker is free, and the open batch
// leaves as one batch of all of them when the running one finishes.
func TestBatchFillsWhileOneRuns(t *testing.T) {
	const cap, k = 8, 5
	ds := testDataset(t, 60, 240, 12, 5, 1, 1)
	e := testEngine(t, ds, testModel(t, ds, nn.SAGE), Options{
		Workers: 2, BatchCap: cap, QueueDepth: 16, Seed: 3,
	})
	held, release := holdFirstBatch(e)
	first := predictAll(t, e, 0)
	<-held
	rest := predictAll(t, e, 1, 2, 3, 4, 5)
	waitFor(t, func() bool { return e.Stats().Admitted == 1+k })
	release()
	first()
	rest()
	wantBatches(t, e, map[int]uint64{1: 1, k: 1})
	waitInFlightZero(t, e)
}

// TestBatchAtExactCap: a batch that reaches BatchCap while another runs is
// dispatched at once to the free worker — it starts, runs and answers all
// of its requests while the first batch is still held.
func TestBatchAtExactCap(t *testing.T) {
	const cap = 4
	ds := testDataset(t, 60, 240, 12, 5, 1, 1)
	e := testEngine(t, ds, testModel(t, ds, nn.SAGE), Options{
		Workers: 2, BatchCap: cap, QueueDepth: 16, Seed: 3,
	})
	held, release := holdFirstBatch(e)
	first := predictAll(t, e, 0)
	<-held
	predictAll(t, e, 1, 2, 3, 4)() // returns only if the full batch ran
	wantBatches(t, e, map[int]uint64{cap: 1})
	release()
	first()
	wantBatches(t, e, map[int]uint64{1: 1, cap: 1})
	waitInFlightZero(t, e)
}

// TestFlushSplitsFullBatches drives the drain-flush path directly on a
// hand-built engine: a queue of 10 requests with BatchCap 4 must come out
// as batches of 4, 4, 2 — split into full batches, nothing dropped.
func TestFlushSplitsFullBatches(t *testing.T) {
	e := &Engine{
		opts:    Options{BatchCap: 4},
		queue:   make(chan *request, 16),
		batches: make(chan []*request, 16),
	}
	for i := 0; i < 10; i++ {
		e.queue <- &request{}
	}
	e.flush(nil)
	close(e.batches)
	var sizes []int
	total := 0
	for b := range e.batches {
		sizes = append(sizes, len(b))
		total += len(b)
	}
	if total != 10 {
		t.Fatalf("flush dispatched %d requests, want 10", total)
	}
	if len(sizes) != 3 || sizes[0] != 4 || sizes[1] != 4 || sizes[2] != 2 {
		t.Fatalf("batch sizes = %v, want [4 4 2]", sizes)
	}

	// A partial batch handed in from the filling state is topped up first.
	e2 := &Engine{
		opts:    Options{BatchCap: 4},
		queue:   make(chan *request, 16),
		batches: make(chan []*request, 16),
	}
	partial := []*request{{}, {}, {}}
	for i := 0; i < 2; i++ {
		e2.queue <- &request{}
	}
	e2.flush(partial)
	close(e2.batches)
	sizes = nil
	for b := range e2.batches {
		sizes = append(sizes, len(b))
	}
	if len(sizes) != 2 || sizes[0] != 4 || sizes[1] != 1 {
		t.Fatalf("partial flush sizes = %v, want [4 1]", sizes)
	}
}

// TestDemuxPropertyCrossRequestDedup is a property test of the seed-dedup
// demux: many randomly generated requests with heavily overlapping node
// sets run as ONE micro-batch (runBatch invoked directly, so coalescing
// is deterministic), alongside a probe request that queries every
// distinct node exactly once. Every request's logits row for node n must
// be bit-identical to the probe's row for n — i.e. demux hands each
// caller exactly the forward-pass row its node mapped to, regardless of
// duplication within a request, across requests, or arrival order.
func TestDemuxPropertyCrossRequestDedup(t *testing.T) {
	const v = 60
	ds := testDataset(t, v, 240, 12, 5, 1, 1)
	m := testModel(t, ds, nn.SAGE)
	e := testEngine(t, ds, m, Options{Workers: 1, BatchCap: 64, Seed: 3})

	prng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 5; trial++ {
		const nreq = 12
		reqs := make([]*request, 0, nreq+1)
		seen := map[int32]bool{}
		var distinct []int32
		for i := 0; i < nreq; i++ {
			n := 1 + prng.Intn(6)
			nodes := make([]int32, n)
			for j := range nodes {
				// Small id space forces overlap and within-request dupes.
				nodes[j] = int32(prng.Intn(12))
				if !seen[nodes[j]] {
					seen[nodes[j]] = true
					distinct = append(distinct, nodes[j])
				}
			}
			reqs = append(reqs, &request{
				ctx: context.Background(), nodes: nodes, wantLogits: true,
				enqueued: time.Now(), done: make(chan result, 1),
			})
		}
		probe := &request{
			ctx: context.Background(), nodes: distinct, wantLogits: true,
			enqueued: time.Now(), done: make(chan result, 1),
		}
		reqs = append(reqs, probe)

		e.inflight.Add(int64(len(reqs))) // runBatch decrements via finish
		e.runBatch(reqs, 0)

		want := map[int32][]float32{}
		pres := <-probe.done
		if pres.err != nil {
			t.Fatalf("trial %d: probe failed: %v", trial, pres.err)
		}
		for j, n := range distinct {
			want[n] = pres.pred.Logits[j]
		}
		for i, r := range reqs[:nreq] {
			res := <-r.done
			if res.err != nil {
				t.Fatalf("trial %d req %d: %v", trial, i, res.err)
			}
			for j, n := range r.nodes {
				if res.pred.Classes[j] != argmax(want[n]) {
					t.Fatalf("trial %d req %d node %d: class %d != argmax of probe row",
						trial, i, n, res.pred.Classes[j])
				}
				for k, g := range res.pred.Logits[j] {
					if g != want[n][k] {
						t.Fatalf("trial %d req %d node %d logit %d: %v != probe %v (demux row mismatch)",
							trial, i, n, k, g, want[n][k])
					}
				}
			}
		}
	}
}

// TestServeTraceStages is the tracing acceptance check: one served
// micro-batch records all five pipeline stages under the batch's id, and
// the stage spans account for (nearly) the whole batch span — the trace
// is a faithful decomposition, not a sampling. Timing on a loaded CI host
// is noisy, so the coverage bound gets a few attempts.
func TestServeTraceStages(t *testing.T) {
	obs.Enable(1 << 10)
	defer obs.Disable()

	ds := testDataset(t, 60, 240, 12, 5, 1, 1)
	e := testEngine(t, ds, testModel(t, ds, nn.SAGE), Options{Workers: 1, Seed: 3})

	wantStages := []obs.Stage{obs.StageSample, obs.StagePartition, obs.StageExec, obs.StageCollective, obs.StageDemux}
	const attempts = 5
	var lastCoverage float64
	// A wide seed set keeps the fixed cost of span transitions (call
	// boundaries between stages, inflated ~10x under the race detector)
	// small relative to the in-span work the coverage bound measures.
	seeds := make([]int32, 40)
	for i := range seeds {
		seeds[i] = int32(i * 3 % 60)
	}
	for attempt := 0; attempt < attempts; attempt++ {
		obs.Enable(1 << 10) // fresh ring per attempt
		if _, err := e.Predict(context.Background(), seeds, false); err != nil {
			t.Fatalf("Predict: %v", err)
		}
		// The batch span ends before the reply is sent.
		spans := obs.Spans()
		var batchID uint64
		var batchDur time.Duration
		for _, s := range spans {
			if s.Stage == obs.StageBatch {
				batchID, batchDur = s.ID, s.Dur
			}
		}
		if batchID == 0 {
			t.Fatal("no batch span in the trace after the reply")
		}
		var sum time.Duration
		got := map[obs.Stage]bool{}
		for _, s := range spans {
			if s.ID == batchID && s.Stage != obs.StageBatch {
				got[s.Stage] = true
				sum += s.Dur
			}
		}
		for _, st := range wantStages {
			if !got[st] {
				t.Fatalf("stage %v missing from trace (got %v)", st, got)
			}
		}
		if batchDur <= 0 {
			t.Fatal("batch span has no duration")
		}
		lastCoverage = float64(sum) / float64(batchDur)
		if lastCoverage >= 0.95 && lastCoverage <= 1.05 {
			return
		}
	}
	t.Fatalf("stage spans cover %.1f%% of the batch span after %d attempts, want within 5%% of 100%%",
		100*lastCoverage, attempts)
}

// TestReplyAfterBatchSpan: a request's reply arrives only after its
// micro-batch's spans have ended, so a trace read right after Predict
// returns holds that batch. One worker runs the batches one at a time;
// after the i-th Predict the ring must hold i+1 batch spans.
func TestReplyAfterBatchSpan(t *testing.T) {
	obs.Enable(1 << 15)
	defer obs.Disable()
	ds := testDataset(t, 60, 240, 12, 5, 1, 1)
	e := testEngine(t, ds, testModel(t, ds, nn.SAGE), Options{Workers: 1, Seed: 3})
	for i := range 300 {
		if _, err := e.Predict(context.Background(), []int32{int32(i % 60)}, false); err != nil {
			t.Fatalf("Predict %d: %v", i, err)
		}
		batches := 0
		for _, s := range obs.Spans() {
			if s.Stage == obs.StageBatch {
				batches++
			}
		}
		if batches != i+1 {
			t.Fatalf("after reply %d the trace holds %d batch spans, want %d", i, batches, i+1)
		}
	}
}
