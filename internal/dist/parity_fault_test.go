package dist

import (
	"fmt"
	"math"
	"testing"
	"time"

	"wisegraph/internal/fault"
	"wisegraph/internal/graph"
	"wisegraph/internal/graph/gen"
	"wisegraph/internal/nn"
	"wisegraph/internal/tensor"
)

// This file is the distributed correctness battery: forward and backward
// parity against the single-device reference at 1, 2 and 4 simulated
// devices for every model, then the same runs under an injected
// straggler-and-error schedule to prove the retry ladder changes timing,
// never numbers.

func parityGraph(t *testing.T) (*graph.Graph, *nn.GraphCtx, *tensor.Tensor) {
	t.Helper()
	res := gen.Generate(gen.Config{NumVertices: 240, NumEdges: 2000, Kind: gen.PowerLaw, Skew: 0.9, NumTypes: 3, Seed: 4})
	x := tensor.New(240, 10)
	tensor.Uniform(x, tensor.NewRNG(5), -1, 1)
	return res.Graph, nn.NewGraphCtx(res.Graph), x
}

// parityLayers builds one 10 → 6 layer per model; every call of mk draws
// the same weights.
var parityLayers = []struct {
	kind nn.ModelKind
	mk   func() nn.Layer
}{
	{nn.GCN, func() nn.Layer { return nn.NewGCNLayer(tensor.NewRNG(6), 10, 6) }},
	{nn.SAGE, func() nn.Layer { return nn.NewSAGELayer(tensor.NewRNG(7), 10, 6) }},
	{nn.SAGELSTM, func() nn.Layer { return nn.NewSAGELSTMLayer(tensor.NewRNG(8), 10, 6) }},
	{nn.GAT, func() nn.Layer { return nn.NewGATLayer(tensor.NewRNG(9), 10, 6, 2) }},
	{nn.RGCN, func() nn.Layer { return nn.NewRGCNLayer(tensor.NewRNG(10), 3, 10, 6) }},
}

// executable lists the placements the engine runs for a model.
func executable(kind nn.ModelKind) []Strategy {
	if kind == nn.GCN {
		return []Strategy{DPPre, DPPost}
	}
	return []Strategy{DPPre}
}

// distForward runs one layer at n devices on fresh replicas and returns
// the unsharded output.
func distForward(t *testing.T, n int, g *graph.Graph, x *tensor.Tensor, mk func() nn.Layer, strat Strategy) *tensor.Tensor {
	t.Helper()
	e := NewEngine(NewCluster(n), g)
	parts, err := e.Forward(replicate(n, mk), e.Shard(x), strat)
	if err != nil {
		t.Fatalf("%d devices: %v", n, err)
	}
	return e.Unshard(parts)
}

// distBackward runs one layer's forward and backward at n devices on fresh
// replicas and returns the unsharded dX plus the replicas, whose parameter
// gradients the caller reduces.
func distBackward(t *testing.T, n int, g *graph.Graph, x, dOut *tensor.Tensor, mk func() nn.Layer, strat Strategy) (*tensor.Tensor, []nn.Layer) {
	t.Helper()
	e := NewEngine(NewCluster(n), g)
	replicas := replicate(n, mk)
	if _, err := e.Forward(replicas, e.Shard(x), strat); err != nil {
		t.Fatalf("%d devices forward: %v", n, err)
	}
	dx, err := e.Backward(replicas, e.Shard(dOut), strat, true)
	if err != nil {
		t.Fatalf("%d devices backward: %v", n, err)
	}
	return e.Unshard(dx), replicas
}

// TestForwardBitwiseParity holds every model's distributed forward to the
// single-device layer bit for bit, at every partition width and under
// every placement that executes: a device runs the same layer body, and
// each owned destination sees its in-edges in the single-device order.
func TestForwardBitwiseParity(t *testing.T) {
	g, gc, x := parityGraph(t)
	for _, pl := range parityLayers {
		want := pl.mk().Forward(gc, x)
		for _, n := range []int{1, 2, 4} {
			for _, strat := range executable(pl.kind) {
				got := distForward(t, n, g, x, pl.mk, strat)
				for i, v := range got.Data() {
					if math.Float32bits(v) != math.Float32bits(want.Data()[i]) {
						t.Fatalf("%v %v @%d: element %d is %v, single device %v", pl.kind, strat, n, i, v, want.Data()[i])
					}
				}
			}
		}
	}
}

// TestForwardBackwardParityAcrossDeviceCounts checks every model's
// distributed backward — the input gradient after the reverse exchange
// and the replicas' summed parameter gradients — against the
// single-device layer at every partition width and placement. 1 device is
// the degenerate no-exchange case; 2 and 4 exercise growing halo volumes.
func TestForwardBackwardParityAcrossDeviceCounts(t *testing.T) {
	g, gc, x := parityGraph(t)
	dOut := tensor.New(240, 6)
	tensor.Uniform(dOut, tensor.NewRNG(8), -1, 1)
	for _, pl := range parityLayers {
		ref := pl.mk()
		ref.Forward(gc, x)
		wantDX := ref.Backward(gc, dOut, true)
		for _, n := range []int{1, 2, 4} {
			for _, strat := range executable(pl.kind) {
				what := fmt.Sprintf("%v %v @%d", pl.kind, strat, n)
				dx, replicas := distBackward(t, n, g, x, dOut, pl.mk, strat)
				closeAll(t, dx, wantDX, 1e-3, what+" dX")
				for i, p := range ref.Params() {
					sum := tensor.New(p.Grad.Shape()...)
					for _, r := range replicas {
						tensor.AXPY(sum, 1, r.Params()[i].Grad)
					}
					closeAll(t, sum, p.Grad, 1e-2, what+" d"+p.Name)
				}
			}
		}
	}
}

// stragglerSchedule injects a heavy mix at the exchange site: 10% hard
// errors (retried with backoff) and 40% stragglers whose 2ms spike the
// fetch really waits out.
func stragglerSchedule() *fault.Schedule {
	return &fault.Schedule{
		Seed: 42,
		Sites: map[string]fault.SiteConfig{
			fault.SiteExchange: {ErrorRate: 0.1, LatencyRate: 0.4, Delay: 2 * time.Millisecond},
		},
	}
}

// TestFaultedExchangeBitIdenticalToUnfaulted is the central resilience
// claim: under injected errors and stragglers the distributed forward and
// backward (both exchange directions, both placements) are BIT-IDENTICAL
// to the unfaulted runs — a retry re-copies idempotent rows, so it may
// only change timing. The test also asserts faults actually fired.
func TestFaultedExchangeBitIdenticalToUnfaulted(t *testing.T) {
	g, _, x := parityGraph(t)
	dOut := tensor.New(240, 6)
	tensor.Uniform(dOut, tensor.NewRNG(8), -1, 1)
	cases := []struct {
		mk    func() nn.Layer
		strat Strategy
	}{
		{parityLayers[0].mk, DPPost}, // GCN
		{parityLayers[1].mk, DPPre},  // SAGE
	}
	for _, c := range cases {
		for _, n := range []int{2, 4} {
			fwdClean := distForward(t, n, g, x, c.mk, c.strat)
			bwdClean, _ := distBackward(t, n, g, x, dOut, c.mk, c.strat)
			var fwdFaulted, bwdFaulted *tensor.Tensor
			fault.WithSchedule(stragglerSchedule(), func() {
				fwdFaulted = distForward(t, n, g, x, c.mk, c.strat)
				bwdFaulted, _ = distBackward(t, n, g, x, dOut, c.mk, c.strat)
				snap := fault.Snapshot()[fault.SiteExchange]
				if snap.Errors == 0 || snap.Latencies == 0 {
					t.Fatalf("@%d devices: schedule fired %d errors / %d latencies; chaos test proves nothing", n, snap.Errors, snap.Latencies)
				}
			})
			closeAll(t, fwdFaulted, fwdClean, 0, fmt.Sprintf("faulted %v fwd @%d", c.strat, n))
			closeAll(t, bwdFaulted, bwdClean, 0, fmt.Sprintf("faulted %v dX @%d", c.strat, n))
		}
	}
}

// newParityTrainer builds a fresh 4-device trainer for a 10 → 8 → 4 model
// of the given kind, every vertex labeled and in the training mask.
func newParityTrainer(t *testing.T, kind nn.ModelKind, g *graph.Graph, x *tensor.Tensor) *Trainer {
	t.Helper()
	m, err := nn.NewModel(nn.Config{Kind: kind, InDim: 10, Hidden: 8, OutDim: 4, Layers: 2, Heads: 2, NumTypes: 3, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	labels := make([]int32, 240)
	mask := make([]int32, 240)
	for i := range labels {
		labels[i] = int32(i % 4)
		mask[i] = int32(i)
	}
	tr, err := NewTrainer(NewEngine(NewCluster(4), g), m, x, labels, mask, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// trainLosses runs a fresh distributed trainer for steps iterations and
// returns the loss sequence.
func trainLosses(t *testing.T, kind nn.ModelKind, g *graph.Graph, x *tensor.Tensor, steps int) []float64 {
	t.Helper()
	tr := newParityTrainer(t, kind, g, x)
	out := make([]float64, steps)
	for s := range out {
		loss, err := tr.Step()
		if err != nil {
			t.Fatalf("%v step %d: %v", kind, s, err)
		}
		out[s] = loss
	}
	return out
}

// TestFaultedTrainingLossTrajectoryBitIdentical trains end to end under
// the straggler schedule and requires the loss sequence to match the
// clean run exactly — not approximately.
func TestFaultedTrainingLossTrajectoryBitIdentical(t *testing.T) {
	g, _, x := parityGraph(t)
	for _, kind := range []nn.ModelKind{nn.GCN, nn.SAGE, nn.GAT} {
		clean := trainLosses(t, kind, g, x, 4)
		var faulted []float64
		fault.WithSchedule(stragglerSchedule(), func() {
			faulted = trainLosses(t, kind, g, x, 4)
		})
		for s := range clean {
			if math.Float64bits(clean[s]) != math.Float64bits(faulted[s]) {
				t.Fatalf("%v step %d: clean loss %v, faulted loss %v (must be bit-identical)", kind, s, clean[s], faulted[s])
			}
		}
	}
}

// TestFaultDrawsPerStepEqualFetchCount pins both exchange directions to
// the fault site: one Step at 4 devices draws once per peer fetch — a
// forward exchange per layer, plus a reverse exchange per layer whose
// input gradient is needed (every layer but the first) or whose DP-post
// weight gradient needs its owners' dXW.
func TestFaultDrawsPerStepEqualFetchCount(t *testing.T) {
	g, _, x := parityGraph(t)
	counting := &fault.Schedule{Seed: 1, Sites: map[string]fault.SiteConfig{fault.SiteExchange: {}}}
	for _, kind := range []nn.ModelKind{nn.GCN, nn.SAGE} {
		tr := newParityTrainer(t, kind, g, x)
		n := tr.E.C.N
		var want uint64
		for li, strat := range tr.Placements {
			want += uint64(n * (n - 1))
			if li > 0 || strat == DPPost {
				want += uint64(n * (n - 1))
			}
		}
		fault.WithSchedule(counting, func() {
			if _, err := tr.Step(); err != nil {
				t.Fatal(err)
			}
			if got := fault.Snapshot()[fault.SiteExchange].Draws; got != want {
				t.Fatalf("%v placements %v: %d exchange draws per step, want %d", kind, tr.Placements, got, want)
			}
		})
	}
}

// TestExchangeBudgetExhaustionSurfaces pins the failure mode: at a 100%
// error rate every retry burns out and the error must surface through
// the layer entry as an injected fault, not a panic or a silent wrong
// answer.
func TestExchangeBudgetExhaustionSurfaces(t *testing.T) {
	g, _, x := parityGraph(t)
	e := NewEngine(NewCluster(4), g)
	replicas := replicate(4, parityLayers[1].mk)
	fault.WithSchedule(&fault.Schedule{
		Seed:  9,
		Sites: map[string]fault.SiteConfig{fault.SiteExchange: {ErrorRate: 1}},
	}, func() {
		if _, err := e.Forward(replicas, e.Shard(x), DPPre); err == nil {
			t.Fatal("expected exchange budget exhaustion")
		} else if !fault.IsInjected(err) {
			t.Fatalf("error lost its injected marker: %v", err)
		}
		retries := e.Resilience()
		if retries == 0 {
			t.Fatal("no retries recorded before giving up")
		}
	})
}
