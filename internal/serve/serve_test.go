package serve

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"wisegraph/internal/dataset"
	"wisegraph/internal/graph"
	"wisegraph/internal/nn"
	"wisegraph/internal/tensor"
)

// testDataset synthesizes a small random dataset directly (no scaling
// machinery) so serving tests stay fast under -race.
func testDataset(t testing.TB, v, edges, dim, classes, numTypes int, seed uint64) *dataset.Dataset {
	t.Helper()
	rng := tensor.NewRNG(seed)
	g := &graph.Graph{NumVertices: v, NumTypes: numTypes}
	for i := 0; i < edges; i++ {
		g.Src = append(g.Src, int32(rng.Intn(v)))
		g.Dst = append(g.Dst, int32(rng.Intn(v)))
		if numTypes > 1 {
			g.Type = append(g.Type, int32(rng.Intn(numTypes)))
		}
	}
	feats := tensor.New(v, dim)
	data := feats.Data()
	for i := range data {
		data[i] = rng.Float32()
	}
	labels := make([]int32, v)
	for i := range labels {
		labels[i] = int32(rng.Intn(classes))
	}
	return &dataset.Dataset{
		Spec:     dataset.Spec{Name: "test", Classes: classes, NumTypes: numTypes},
		Scale:    1,
		Graph:    g,
		Features: feats,
		Labels:   labels,
	}
}

func testModel(t testing.TB, ds *dataset.Dataset, kind nn.ModelKind) *nn.Model {
	t.Helper()
	m, err := nn.NewModel(nn.Config{
		Kind: kind, InDim: ds.Dim(), Hidden: 8, OutDim: ds.Classes(),
		Layers: 2, NumTypes: ds.Graph.NumTypes, Seed: 7,
	})
	if err != nil {
		t.Fatalf("NewModel: %v", err)
	}
	return m
}

func testEngine(t testing.TB, ds *dataset.Dataset, m *nn.Model, opts Options) *Engine {
	t.Helper()
	e, err := NewEngine(ds, m, opts)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := e.Shutdown(ctx); err != nil {
			t.Errorf("cleanup shutdown: %v", err)
		}
	})
	return e
}

func waitInFlightZero(t *testing.T, e *Engine) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if e.InFlight() == 0 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("in-flight never drained: %d", e.InFlight())
}

func TestPredictBasic(t *testing.T) {
	ds := testDataset(t, 60, 240, 12, 5, 1, 1)
	e := testEngine(t, ds, testModel(t, ds, nn.SAGE), Options{Workers: 1, Seed: 3})

	pred, err := e.Predict(context.Background(), []int32{0, 7, 59}, true)
	if err != nil {
		t.Fatalf("Predict: %v", err)
	}
	if len(pred.Classes) != 3 || len(pred.Logits) != 3 {
		t.Fatalf("got %d classes, %d logits rows, want 3/3", len(pred.Classes), len(pred.Logits))
	}
	for j, c := range pred.Classes {
		if c < 0 || int(c) >= ds.Classes() {
			t.Fatalf("class[%d]=%d out of range [0,%d)", j, c, ds.Classes())
		}
		if len(pred.Logits[j]) != ds.Classes() {
			t.Fatalf("logits[%d] has %d cols, want %d", j, len(pred.Logits[j]), ds.Classes())
		}
		if argmax(pred.Logits[j]) != c {
			t.Fatalf("class[%d]=%d disagrees with argmax of returned logits", j, c)
		}
	}
}

// TestBatchDemuxParity checks the heart of the micro-batcher: coalescing
// requests (with overlapping, duplicated seeds) into one forward pass must
// return bit-identical results to issuing each request alone. Fan-outs
// cover every in-neighbor, so sampling is deterministic and each vertex
// that contributes aggregation keeps its full in-degree in both the
// per-request and the unioned subgraph — outputs must match exactly.
func TestBatchDemuxParity(t *testing.T) {
	const v = 60
	ds := testDataset(t, v, 240, 12, 5, 1, 1)
	m := testModel(t, ds, nn.SAGE)
	full := []int{v, v} // >= max in-degree: sampling takes every edge
	e := testEngine(t, ds, m, Options{
		Workers: 1, BatchCap: 8, Fanouts: full, Seed: 3,
	})

	// Overlapping node sets: node 3 appears in every request, requests 0/4
	// are identical — exercises cross-request seed dedupe.
	reqs := make([][]int32, 8)
	for i := range reqs {
		reqs[i] = []int32{int32(i % 4), int32((i*7 + 11) % v), 3}
	}

	// Reference: sequential, one request per batch.
	want := make([]*Prediction, len(reqs))
	for i, nodes := range reqs {
		p, err := e.Predict(context.Background(), nodes, true)
		if err != nil {
			t.Fatalf("sequential Predict %d: %v", i, err)
		}
		want[i] = p
	}

	// Batched: all requests released together, coalesced by the batcher.
	got := make([]*Prediction, len(reqs))
	errs := make([]error, len(reqs))
	var start, done sync.WaitGroup
	start.Add(1)
	for i := range reqs {
		done.Add(1)
		go func(i int) {
			defer done.Done()
			start.Wait()
			got[i], errs[i] = e.Predict(context.Background(), reqs[i], true)
		}(i)
	}
	start.Done()
	done.Wait()

	// Coalescing changes float summation order (the unioned subgraph
	// partitions differently), so logits agree to rounding, not bitwise.
	const eps = 1e-4
	for i := range reqs {
		if errs[i] != nil {
			t.Fatalf("batched Predict %d: %v", i, errs[i])
		}
		for j := range reqs[i] {
			var margin float32 = 1 // reference gap between top-1 and top-2
			top := want[i].Classes[j]
			for k, w := range want[i].Logits[j] {
				g := got[i].Logits[j][k]
				if d := abs32(g - w); d > eps*max32(1, abs32(w)) {
					t.Fatalf("req %d node %d logit %d: batched %v != sequential %v",
						i, reqs[i][j], k, g, w)
				}
				if int32(k) != top {
					if gap := want[i].Logits[j][top] - w; gap < margin {
						margin = gap
					}
				}
			}
			// argmax may only flip on a genuine near-tie.
			if got[i].Classes[j] != top && margin > 2*eps {
				t.Errorf("req %d node %d: batched class %d != sequential %d (margin %v)",
					i, reqs[i][j], got[i].Classes[j], top, margin)
			}
		}
	}
	waitInFlightZero(t, e)
}

func abs32(x float32) float32 {
	if x < 0 {
		return -x
	}
	return x
}

func max32(a, b float32) float32 {
	if a > b {
		return a
	}
	return b
}

// TestPredictAllModelKinds runs one request through every evaluated model
// so each gTask compute path is exercised behind the serving engine.
func TestPredictAllModelKinds(t *testing.T) {
	for _, kind := range []nn.ModelKind{nn.GCN, nn.SAGE, nn.SAGELSTM, nn.GAT, nn.RGCN} {
		t.Run(kind.String(), func(t *testing.T) {
			types := 1
			if kind == nn.RGCN {
				types = 3
			}
			ds := testDataset(t, 50, 200, 10, 4, types, 2)
			e := testEngine(t, ds, testModel(t, ds, kind), Options{Workers: 1, Seed: 5})
			pred, err := e.Predict(context.Background(), []int32{1, 2, 3}, false)
			if err != nil {
				t.Fatalf("Predict: %v", err)
			}
			if len(pred.Classes) != 3 {
				t.Fatalf("got %d classes, want 3", len(pred.Classes))
			}
		})
	}
}

func TestPredictValidation(t *testing.T) {
	ds := testDataset(t, 40, 160, 8, 4, 1, 1)
	e := testEngine(t, ds, testModel(t, ds, nn.SAGE), Options{Workers: 1})
	ctx := context.Background()
	for name, nodes := range map[string][]int32{
		"empty":    {},
		"negative": {-1},
		"too-big":  {40},
		"over-cap": make([]int32, maxNodes+1),
	} {
		if _, err := e.Predict(ctx, nodes, false); err == nil {
			t.Errorf("%s: Predict accepted invalid input %v", name, nodes)
		}
	}
}

// TestShedWhenQueueFull stalls the worker pool behind a gate and keeps
// adding requests until the tiny pipeline (queue 1 + batcher + dispatch +
// worker) is full: the next arrival must be refused immediately with
// ErrOverloaded, and once the gate opens every admitted request completes.
func TestShedWhenQueueFull(t *testing.T) {
	ds := testDataset(t, 60, 240, 12, 5, 1, 1)
	e := testEngine(t, ds, testModel(t, ds, nn.SAGE), Options{
		Workers: 1, BatchCap: 1, QueueDepth: 1, Seed: 3,
	})
	release := make(chan struct{})
	e.testHookBatchStart = func() { <-release }

	const maxTries = 64
	var wg sync.WaitGroup
	errCh := make(chan error, maxTries)
	launched := 0
	for i := 0; i < maxTries && e.Stats().Shed == 0; i++ {
		launched++
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := e.Predict(context.Background(), []int32{int32(i % 60)}, false)
			errCh <- err
		}(i)
		time.Sleep(time.Millisecond) // let the pipeline absorb what it can
	}
	close(release)
	wg.Wait()
	close(errCh)

	var shed, completed, other int
	for err := range errCh {
		switch {
		case err == nil:
			completed++
		case errors.Is(err, ErrOverloaded):
			shed++
		default:
			other++
			t.Errorf("unexpected error: %v", err)
		}
	}
	if other != 0 {
		t.Fatalf("%d requests failed with unexpected errors", other)
	}
	if shed == 0 {
		t.Fatalf("pipeline never shed (launched %d of max %d with workers stalled)", launched, maxTries)
	}
	if completed == 0 {
		t.Fatal("no admitted request completed after release")
	}
	if completed+shed != launched {
		t.Fatalf("completed %d + shed %d != launched %d", completed, shed, launched)
	}
	if e.Stats().Shed == 0 {
		t.Fatal("stats recorded zero shed")
	}
	waitInFlightZero(t, e)
}

func TestPredictContextCanceled(t *testing.T) {
	ds := testDataset(t, 40, 160, 8, 4, 1, 1)
	e := testEngine(t, ds, testModel(t, ds, nn.SAGE), Options{Workers: 1})

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.Predict(ctx, []int32{1}, false); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	// The worker still owes the abandoned request its in-flight decrement.
	waitInFlightZero(t, e)
	if e.Stats().Canceled == 0 {
		t.Error("canceled request not counted")
	}
}

// TestDrain checks graceful shutdown: everything admitted before Shutdown
// is answered, later arrivals get ErrDraining, and the engine ends with
// zero in-flight requests.
func TestDrain(t *testing.T) {
	ds := testDataset(t, 60, 240, 12, 5, 1, 1)
	e := testEngine(t, ds, testModel(t, ds, nn.SAGE), Options{
		Workers: 2, BatchCap: 4, QueueDepth: 64,
	})

	const n = 24
	var wg sync.WaitGroup
	errsCh := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := e.Predict(context.Background(), []int32{int32(i % 60)}, false)
			errsCh <- err
		}(i)
	}

	time.Sleep(2 * time.Millisecond) // let a few requests get admitted
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := e.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	wg.Wait()
	close(errsCh)

	var served, rejected int
	for err := range errsCh {
		switch {
		case err == nil:
			served++
		case errors.Is(err, ErrDraining), errors.Is(err, ErrOverloaded):
			rejected++
		default:
			t.Fatalf("unexpected error during drain: %v", err)
		}
	}
	if served+rejected != n {
		t.Fatalf("served %d + rejected %d != %d", served, rejected, n)
	}
	if got := e.InFlight(); got != 0 {
		t.Fatalf("in-flight after drain = %d, want 0", got)
	}
	if !e.Draining() {
		t.Fatal("Draining() false after Shutdown")
	}
	if _, err := e.Predict(context.Background(), []int32{0}, false); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain Predict: got %v, want ErrDraining", err)
	}
	// Shutdown is idempotent.
	if err := e.Shutdown(ctx); err != nil {
		t.Fatalf("second Shutdown: %v", err)
	}
}

func TestEngineRejectsMismatchedModel(t *testing.T) {
	ds := testDataset(t, 40, 160, 8, 4, 1, 1)
	m, err := nn.NewModel(nn.Config{
		Kind: nn.SAGE, InDim: ds.Dim() + 1, Hidden: 8, OutDim: ds.Classes(), Layers: 2, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewEngine(ds, m, Options{}); err == nil {
		t.Fatal("NewEngine accepted a model with the wrong input dim")
	}
}
