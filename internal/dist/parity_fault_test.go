package dist

import (
	"fmt"
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
// devices, then the same runs under an injected straggler-and-error
// schedule to prove the retry ladder changes timing, never numbers.

func parityGraph(t *testing.T) (*graph.Graph, *nn.GraphCtx, *tensor.Tensor) {
	t.Helper()
	res := gen.Generate(gen.Config{NumVertices: 240, NumEdges: 2000, Kind: gen.PowerLaw, Skew: 0.9, Seed: 4})
	x := tensor.New(240, 10)
	tensor.Uniform(x, tensor.NewRNG(5), -1, 1)
	return res.Graph, nn.NewGraphCtx(res.Graph), x
}

// distSAGEForward builds a fresh engine at n devices with deterministic
// layer weights and returns the unsharded distributed forward output.
func distSAGEForward(t *testing.T, n int, g *graph.Graph, x *tensor.Tensor) *tensor.Tensor {
	t.Helper()
	e := NewEngine(NewCluster(n), g)
	layer := nn.NewSAGELayer(tensor.NewRNG(7), 10, 6)
	parts, err := e.SAGEForward(layer, e.Shard(x))
	if err != nil {
		t.Fatalf("%d devices: %v", n, err)
	}
	return e.Unshard(parts)
}

func distGCNForward(t *testing.T, n int, g *graph.Graph, x *tensor.Tensor, strat Strategy) *tensor.Tensor {
	t.Helper()
	e := NewEngine(NewCluster(n), g)
	layer := nn.NewGCNLayer(tensor.NewRNG(6), 10, 6)
	parts, err := e.GCNForward(layer, e.Shard(x), strat)
	if err != nil {
		t.Fatalf("%d devices: %v", n, err)
	}
	return e.Unshard(parts)
}

// distSAGEBackward returns the unsharded dX of the distributed backward at
// n devices, with deterministic weights and upstream gradient.
func distSAGEBackward(t *testing.T, n int, g *graph.Graph, x *tensor.Tensor) *tensor.Tensor {
	t.Helper()
	e := NewEngine(NewCluster(n), g)
	layer := nn.NewSAGELayer(tensor.NewRNG(7), 10, 6)
	dOut := tensor.New(240, 6)
	tensor.Uniform(dOut, tensor.NewRNG(8), -1, 1)
	xParts := e.Shard(x)
	if _, err := e.SAGEForward(layer, xParts); err != nil {
		t.Fatalf("%d devices forward: %v", n, err)
	}
	dxParts, err := e.SAGEBackward(layer, xParts, e.Shard(dOut))
	if err != nil {
		t.Fatalf("%d devices backward: %v", n, err)
	}
	return e.Unshard(dxParts)
}

// TestForwardBackwardParityAcrossDeviceCounts checks GCN (both placements)
// and SAGE forward plus SAGE backward against the single-device reference
// at every partition width. 1 device is the degenerate no-exchange case; 2
// and 4 exercise growing halo volumes.
func TestForwardBackwardParityAcrossDeviceCounts(t *testing.T) {
	g, gc, x := parityGraph(t)
	sageRef := nn.NewSAGELayer(tensor.NewRNG(7), 10, 6).Forward(gc, x)
	gcnRef := nn.NewGCNLayer(tensor.NewRNG(6), 10, 6).Forward(gc, x)
	for _, n := range []int{1, 2, 4} {
		closeAll(t, distSAGEForward(t, n, g, x), sageRef, 1e-4, fmt.Sprintf("sage fwd @%d", n))
		closeAll(t, distGCNForward(t, n, g, x, DPPre), gcnRef, 1e-4, fmt.Sprintf("gcn dp-pre @%d", n))
		closeAll(t, distGCNForward(t, n, g, x, DPPost), gcnRef, 1e-4, fmt.Sprintf("gcn dp-post @%d", n))
	}
	// Backward dX across device counts must agree with each other (the
	// 1-device run is the exchange-free reference).
	ref := distSAGEBackward(t, 1, g, x)
	for _, n := range []int{2, 4} {
		closeAll(t, distSAGEBackward(t, n, g, x), ref, 1e-3, fmt.Sprintf("sage dX @%d", n))
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
// claim: under injected errors and stragglers the distributed forward,
// backward and multi-step training losses are BIT-IDENTICAL to the
// unfaulted runs — a retry re-copies idempotent rows, so it may only
// change timing. The test also asserts faults actually fired.
func TestFaultedExchangeBitIdenticalToUnfaulted(t *testing.T) {
	g, _, x := parityGraph(t)
	for _, n := range []int{2, 4} {
		fwdClean := distSAGEForward(t, n, g, x)
		bwdClean := distSAGEBackward(t, n, g, x)
		var fwdFaulted, bwdFaulted *tensor.Tensor
		fault.WithSchedule(stragglerSchedule(), func() {
			fwdFaulted = distSAGEForward(t, n, g, x)
			bwdFaulted = distSAGEBackward(t, n, g, x)
			snap := fault.Snapshot()[fault.SiteExchange]
			if snap.Errors == 0 || snap.Latencies == 0 {
				t.Fatalf("@%d devices: schedule fired %d errors / %d latencies; chaos test proves nothing", n, snap.Errors, snap.Latencies)
			}
		})
		closeAll(t, fwdFaulted, fwdClean, 0, fmt.Sprintf("faulted fwd @%d", n))
		closeAll(t, bwdFaulted, bwdClean, 0, fmt.Sprintf("faulted dX @%d", n))
	}
}

// trainLosses runs a fresh distributed GCN trainer for steps iterations
// and returns the loss sequence.
func trainLosses(t *testing.T, g *graph.Graph, x *tensor.Tensor, steps int) []float64 {
	t.Helper()
	m, err := nn.NewModel(nn.Config{Kind: nn.GCN, InDim: 10, Hidden: 8, OutDim: 4, Layers: 2, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	labels := make([]int32, 240)
	mask := make([]int32, 240)
	for i := range labels {
		labels[i] = int32(i % 4)
		mask[i] = int32(i)
	}
	e := NewEngine(NewCluster(4), g)
	tr, err := NewTrainer(e, m, x, labels, mask, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, steps)
	for s := range out {
		loss, err := tr.Step()
		if err != nil {
			t.Fatalf("step %d: %v", s, err)
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
	clean := trainLosses(t, g, x, 4)
	var faulted []float64
	fault.WithSchedule(stragglerSchedule(), func() {
		faulted = trainLosses(t, g, x, 4)
	})
	for s := range clean {
		if clean[s] != faulted[s] {
			t.Fatalf("step %d: clean loss %v, faulted loss %v (must be bit-identical)", s, clean[s], faulted[s])
		}
	}
}

// TestExchangeBudgetExhaustionSurfaces pins the failure mode: at a 100%
// error rate every retry burns out and the error must surface through
// every layer (exchange → forward → trainer) as an injected fault, not a
// panic or a silent wrong answer.
func TestExchangeBudgetExhaustionSurfaces(t *testing.T) {
	g, _, x := parityGraph(t)
	e := NewEngine(NewCluster(4), g)
	layer := nn.NewSAGELayer(tensor.NewRNG(7), 10, 6)
	fault.WithSchedule(&fault.Schedule{
		Seed:  9,
		Sites: map[string]fault.SiteConfig{fault.SiteExchange: {ErrorRate: 1}},
	}, func() {
		if _, err := e.SAGEForward(layer, e.Shard(x)); err == nil {
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
