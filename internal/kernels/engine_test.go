package kernels

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"wisegraph/internal/core"
	"wisegraph/internal/device"
	"wisegraph/internal/exec"
	"wisegraph/internal/nn"
	"wisegraph/internal/tensor"
)

func engineNamed(t *testing.T, name string) Engine {
	t.Helper()
	eng, err := Select(name)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestSelectEngine pins the engine table: the three names in order, ""
// selecting the blocked bytes model, and an unknown name's error.
func TestSelectEngine(t *testing.T) {
	for _, c := range []struct{ name, want string }{
		{"", "blocked"},
		{"blocked", "blocked"},
		{"fused", "fused"},
		{"device", "device"},
	} {
		if got := engineNamed(t, c.name).Name(); got != c.want {
			t.Fatalf("Select(%q) = %q, want %q", c.name, got, c.want)
		}
	}
	if got := EngineNames(); !slices.Equal(got, []string{"blocked", "fused", "device"}) {
		t.Fatalf("EngineNames() = %v", got)
	}
	if _, err := Select("warp"); err == nil || !strings.Contains(err.Error(), "unknown engine") {
		t.Fatalf("Select(warp) = %v, want unknown-engine error", err)
	}
}

// runEngine executes one forward pass under the named engine and worker
// count and returns a private copy of the logits.
func runEngine(t *testing.T, engine string, workers int, gc *nn.GraphCtx, m *nn.Model, x *tensor.Tensor, part *core.Partition, op Plan) []float32 {
	t.Helper()
	old := runtime.GOMAXPROCS(workers)
	defer runtime.GOMAXPROCS(old)
	ctx := exec.NewCtx(device.New(device.A100()))
	ctx.Engine = engine
	got, err := RunModel(ctx, gc, m, x, part, op)
	if err != nil {
		t.Fatalf("engine %q: %v", engine, err)
	}
	out := make([]float32, len(got.Data()))
	copy(out, got.Data())
	return out
}

var opPlans = []Plan{{}, {Batched: true}, {Batched: true, Dedup: true}}

// TestEnginesBitwiseParityAcrossPlansAndWorkers is the engine contract
// test: for every model, every valid graph plan, every operation plan and
// 1/N workers, the fused and device engines must reproduce the blocked
// engine's forward output bit for bit.
func TestEnginesBitwiseParityAcrossPlansAndWorkers(t *testing.T) {
	for kind := nn.ModelKind(0); kind < nn.NumModels; kind++ {
		t.Run(kind.String(), func(t *testing.T) {
			gc, m, x := setup(t, kind)
			for _, gp := range plansFor(kind) {
				part := core.PartitionGraph(gc.G, gp, allAttrs())
				for _, op := range opPlans {
					want := runEngine(t, "blocked", 1, gc, m, x, part, op)
					for _, cs := range []struct {
						engine  string
						workers int
					}{
						{"blocked", 8},
						{"fused", 1},
						{"fused", 8},
						{"device", 1},
						{"device", 8},
					} {
						got := runEngine(t, cs.engine, cs.workers, gc, m, x, part, op)
						for i := range want {
							if got[i] != want[i] {
								t.Fatalf("plan %v op %+v engine %s workers=%d: out[%d] = %v, want %v",
									gp, op, cs.engine, cs.workers, i, got[i], want[i])
							}
						}
					}
				}
			}
		})
	}
}

// layerParityAllPlans isolates a single layer of the given model kind and
// checks, for every valid graph plan and operation plan, that the gTask
// computation is the layer's forward over the partition's edge order bit
// for bit — and the plain forward where that order keeps each
// destination's in-edges in edge-id order — and that all engines agree.
func layerParityAllPlans(t *testing.T, kind nn.ModelKind) {
	gc, _, x := setup(t, kind)
	m, err := nn.NewModel(nn.Config{Kind: kind, InDim: 6, Hidden: 8, OutDim: 4, Layers: 1, Heads: 2, NumTypes: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	plain := append([]float32(nil), m.Forward(gc, x).Data()...)
	for _, gp := range plansFor(kind) {
		part := core.PartitionGraph(gc.G, gp, allAttrs())
		want := forwardIn(t, gc, m, x, part.Order)
		for _, op := range opPlans {
			what := fmt.Sprintf("%v plan %v op %+v", kind, gp, op)
			blocked := runEngine(t, "blocked", 1, gc, m, x, part, op)
			bitwiseEqual(t, what+" vs Forward in task order", blocked, want)
			if gc.SameOrder(part.Order) {
				bitwiseEqual(t, what+" vs Forward", blocked, plain)
			}
			for _, engine := range []string{"fused", "device"} {
				got := runEngine(t, engine, 1, gc, m, x, part, op)
				for i := range blocked {
					if got[i] != blocked[i] {
						t.Fatalf("%v plan %v op %+v engine %s: out[%d] = %v, want %v",
							kind, gp, op, engine, i, got[i], blocked[i])
					}
				}
			}
		}
	}
}

func TestComputeGATParityAllPlans(t *testing.T) { layerParityAllPlans(t, nn.GAT) }

func TestComputeLSTMParityAllPlans(t *testing.T) { layerParityAllPlans(t, nn.SAGELSTM) }

// TestFusedEngineMovesFewerBytes pins the fusion's reason to exist: on the
// bandwidth-bound shapes (GCN/GraphSAGE at F=64) the streaming dataflow
// must model strictly less traffic than the blocked three-pass dataflow on
// destination-contiguous plans, and never more on any plan.
func TestFusedEngineMovesFewerBytes(t *testing.T) {
	for _, kind := range []nn.ModelKind{nn.GCN, nn.SAGE} {
		gc, _, _ := setup(t, kind)
		sh := LayerShape{Kind: kind, F: 64, Fp: 64, Types: 4}
		for _, gp := range plansFor(kind) {
			part := core.PartitionGraph(gc.G, gp, allAttrs())
			for _, op := range opPlans {
				fusedB := engineNamed(t, "fused").LayerBytes(sh, part, op)
				blockedB := engineNamed(t, "blocked").LayerBytes(sh, part, op)
				if fusedB > blockedB {
					t.Fatalf("%v plan %v op %+v: fused %.0f B > blocked %.0f B", kind, gp, op, fusedB, blockedB)
				}
			}
		}
		for _, gp := range []core.GraphPlan{core.VertexCentric(), core.WholeGraph()} {
			part := core.PartitionGraph(gc.G, gp, allAttrs())
			fusedB := engineNamed(t, "fused").LayerBytes(sh, part, Plan{Batched: true})
			blockedB := engineNamed(t, "blocked").LayerBytes(sh, part, Plan{Batched: true})
			if fusedB >= blockedB {
				t.Fatalf("%v plan %v: fused %.0f B, want < blocked %.0f B", kind, gp, fusedB, blockedB)
			}
		}
	}
}
