package serve

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"wisegraph/internal/fault"
	"wisegraph/internal/nn"
	"wisegraph/internal/tensor"
)

// TestConcurrentPredictRace hammers one engine from many goroutines while
// metrics and health accessors run concurrently. Its value is under
// `go test -race`: it exercises every piece of shared serving state — the
// frozen joint plan, the graph's lazy degree caches, the admission
// lock/queue, per-worker RNG and partitioner isolation, and the lock-free
// stats — and fails if any of them races.
func TestConcurrentPredictRace(t *testing.T) {
	ds := testDataset(t, 80, 320, 12, 5, 1, 1)
	e := testEngine(t, ds, testModel(t, ds, nn.SAGE), Options{
		Workers: 4, BatchCap: 8, QueueDepth: 128,
	})

	const (
		goroutines = 12
		perClient  = 25
	)
	var wg sync.WaitGroup
	for c := 0; c < goroutines; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := tensor.NewRNG(uint64(c + 1))
			for i := 0; i < perClient; i++ {
				n := 1 + rng.Intn(4)
				nodes := make([]int32, n)
				for j := range nodes {
					nodes[j] = int32(rng.Intn(80))
				}
				pred, err := e.Predict(context.Background(), nodes, c%3 == 0)
				switch {
				case err == nil:
					if len(pred.Classes) != n {
						t.Errorf("client %d: got %d classes, want %d", c, len(pred.Classes), n)
						return
					}
				case errors.Is(err, ErrOverloaded):
					time.Sleep(200 * time.Microsecond)
				default:
					t.Errorf("client %d: %v", c, err)
					return
				}
			}
		}(c)
	}

	// Concurrent observers over the same shared state.
	stopObs := make(chan struct{})
	var obsWG sync.WaitGroup
	obsWG.Add(1)
	go func() {
		defer obsWG.Done()
		for {
			select {
			case <-stopObs:
				return
			default:
				_ = e.Stats()
				_ = e.QueueDepth()
				_ = e.Draining()
				_ = e.InFlight()
				time.Sleep(100 * time.Microsecond)
			}
		}
	}()

	wg.Wait()
	close(stopObs)
	obsWG.Wait()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := e.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if got := e.InFlight(); got != 0 {
		t.Fatalf("in-flight after drain = %d, want 0", got)
	}
}

// TestConcurrentShutdownRace races Shutdown against a stream of Predicts:
// every request must resolve (answer, shed, or draining) and the drain
// must still reach zero in-flight.
func TestConcurrentShutdownRace(t *testing.T) {
	ds := testDataset(t, 60, 240, 12, 5, 1, 1)
	e := testEngine(t, ds, testModel(t, ds, nn.SAGE), Options{
		Workers: 2, BatchCap: 4, QueueDepth: 32,
	})

	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				_, err := e.Predict(context.Background(), []int32{int32((c*20 + i) % 60)}, false)
				if err != nil && !errors.Is(err, ErrOverloaded) && !errors.Is(err, ErrDraining) {
					t.Errorf("client %d: %v", c, err)
					return
				}
			}
		}(c)
	}

	time.Sleep(time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := e.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	wg.Wait()
	if got := e.InFlight(); got != 0 {
		t.Fatalf("in-flight after drain = %d, want 0", got)
	}
}

// TestReloadWhileHedgedLoserRuns: every shard worker reads the one model
// its fleet publishes, and Reload swaps that model whole instead of writing
// into it. On a 1 span x 2 replica fleet a tight ShardTimeout hedges every
// Compute and a shard.rpc latency schedule shuffles which replica wins, so
// the loser — a Compute nobody waits for, reading the parameters it
// started with — is still running when its batch has been answered and the
// next Reload publishes. Under -race that is silent only if nothing a
// shard may be reading is ever written; and every response must be, whole,
// the old or the new single-node model's. The test runs four Ps wide
// whatever the process was given: on one P a Compute is never interrupted,
// so no loser could be caught mid-run.
func TestReloadWhileHedgedLoserRuns(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const v = 300
	ds := testDataset(t, v, 3000, 32, 4, 2, 13)
	// Reload wants one Cfg, seed included: model 1 is model 0's architecture
	// holding another seed's parameters.
	cfg := nn.Config{
		Kind: nn.RGCN, InDim: ds.Dim(), Hidden: 32, OutDim: ds.Classes(),
		Layers: 2, NumTypes: ds.Graph.NumTypes, Seed: 7,
	}
	newModel := func(cfg nn.Config) *nn.Model {
		m, err := nn.NewModel(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	models := [2]*nn.Model{newModel(cfg), newModel(cfg)}
	other := cfg
	other.Seed = 4242
	if err := models[1].CopyParamsFrom(newModel(other)); err != nil {
		t.Fatal(err)
	}
	nodes := make([]int32, 200)
	for i := range nodes {
		nodes[i] = int32(i)
	}
	single := testEngine(t, ds, models[0], Options{Workers: 1, Seed: 5})
	want := [2][][]float32{predictLogits(t, single, nodes)}
	want[1] = predictLogits(t, testEngine(t, ds, models[1], Options{Workers: 1, Seed: 5, Plan: single.Plan()}), nodes)
	served := func(got [][]float32) int {
		for i, w := range want {
			if slices.EqualFunc(got, w, slices.Equal[[]float32]) {
				return i
			}
		}
		return -1
	}

	e := testEngine(t, ds, models[0], Options{
		Replicas: 2, Workers: 2, BatchCap: 1, Seed: 5, Plan: single.Plan(),
		ShardTimeout: 400 * time.Microsecond, // hedge after 100µs, well inside one Compute
	})
	sched := &fault.Schedule{Seed: 99, Sites: map[string]fault.SiteConfig{
		fault.SiteShardRPC: {LatencyRate: 0.3, Delay: 200 * time.Microsecond},
	}}
	fault.WithSchedule(sched, func() {
		// One client, a reload right behind each answer: the response is
		// exactly the current model's, and the loser of the batch's last
		// Compute is what the fleet still counts in flight.
		outlived, cur := 0, 0
		for i := 0; i < 12; i++ {
			if got := served(predictLogits(t, e, nodes)); got != cur {
				t.Fatalf("round %d: response is model %d's, want model %d's", i, got, cur)
			}
			if e.Fleet().InFlight() > 0 {
				outlived++
			}
			cur = 1 - cur
			if err := e.Reload(models[cur]); err != nil {
				t.Fatalf("Reload: %v", err)
			}
		}
		if outlived == 0 {
			t.Fatal("no hedged loser outlived its batch; the test proves nothing")
		}

		// Two clients against a reloader: whichever version a batch ran
		// under, its rows are that one model's.
		stop := make(chan struct{})
		var reloads sync.WaitGroup
		reloads.Add(1)
		go func() {
			defer reloads.Done()
			for next := 1 - cur; ; next = 1 - next {
				select {
				case <-stop:
					return
				case <-time.After(time.Millisecond):
				}
				if err := e.Reload(models[next]); err != nil {
					t.Errorf("Reload: %v", err)
					return
				}
			}
		}()
		var clients sync.WaitGroup
		for c := 0; c < 2; c++ {
			clients.Add(1)
			go func() {
				defer clients.Done()
				for i := 0; i < 8; i++ {
					pred, err := e.Predict(context.Background(), nodes, true)
					if err != nil {
						t.Errorf("Predict: %v", err)
						return
					}
					if served(pred.Logits) < 0 {
						t.Errorf("response is neither model's: torn parameters or a stale row")
						return
					}
				}
			}()
		}
		clients.Wait()
		close(stop)
		reloads.Wait()
	})
	if st := e.Stats(); st.ShardHedges == 0 || st.ShardFailures != 0 {
		t.Fatalf("%d hedges, %d shard failures; want hedges and no failure", st.ShardHedges, st.ShardFailures)
	}
}
