package kernels

import (
	"fmt"
	"math"
	"testing"

	"wisegraph/internal/core"
	"wisegraph/internal/device"
	"wisegraph/internal/exec"
	"wisegraph/internal/graph/gen"
	"wisegraph/internal/nn"
	"wisegraph/internal/tensor"
)

func allAttrs() []core.Attr {
	return []core.Attr{core.AttrSrcID, core.AttrDstID, core.AttrEdgeType, core.AttrDstDegree}
}

func setup(t *testing.T, kind nn.ModelKind) (*nn.GraphCtx, *nn.Model, *tensor.Tensor) {
	t.Helper()
	res := gen.Generate(gen.Config{NumVertices: 150, NumEdges: 1200, Kind: gen.PowerLaw, Skew: 1.0, NumTypes: 4, Seed: 9})
	gc := nn.NewGraphCtx(res.Graph)
	m, err := nn.NewModel(nn.Config{Kind: kind, InDim: 6, Hidden: 8, OutDim: 4, Layers: 2, Heads: 2, NumTypes: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(150, 6)
	tensor.Uniform(x, tensor.NewRNG(4), -1, 1)
	return gc, m, x
}

// plansFor returns a representative set of graph plans valid for the model.
func plansFor(kind nn.ModelKind) []core.GraphPlan {
	var plans []core.GraphPlan
	for _, p := range core.EnumeratePlans(kind.IndexAttrs()) {
		if ValidPlanFor(kind, p) {
			plans = append(plans, p)
		}
	}
	if ValidPlanFor(kind, core.WholeGraph()) {
		plans = append(plans, core.WholeGraph())
	}
	return plans
}

// forwardIn returns a private copy of the model's training forward over
// gc's graph with each destination's in-edges in order.
func forwardIn(t *testing.T, gc *nn.GraphCtx, m *nn.Model, x *tensor.Tensor, order []int32) []float32 {
	t.Helper()
	oc, err := nn.NewGraphCtxOrder(gc.G, order, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer oc.Release()
	return append([]float32(nil), m.Forward(oc, x).Data()...)
}

// bitwiseEqual fails the test at the first element whose bits differ.
func bitwiseEqual(t *testing.T, what string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d elements, want %d", what, len(got), len(want))
	}
	for i, v := range got {
		if math.Float32bits(v) != math.Float32bits(want[i]) {
			t.Fatalf("%s: out[%d] = %v, want %v", what, i, v, want[i])
		}
	}
}

// TestGTaskExecutionMatchesReference holds the gTask execution to the
// model's own forward bit for bit: for every model, plan and operation
// plan, RunModel is m.Forward over the partition's edge order, and where
// that order gives each destination its in-edges in edge-id order
// (vertex-centric, dst-batch-k) it is also m.Forward over the plain
// context.
func TestGTaskExecutionMatchesReference(t *testing.T) {
	inOrder := 0
	for kind := nn.ModelKind(0); kind < nn.NumModels; kind++ {
		gc, m, x := setup(t, kind)
		plain := append([]float32(nil), m.Forward(gc, x).Data()...)
		for _, gp := range plansFor(kind) {
			part := core.PartitionGraph(gc.G, gp, allAttrs())
			want := forwardIn(t, gc, m, x, part.Order)
			same := gc.SameOrder(part.Order)
			if gp.Name == "vertex-centric" && !same {
				t.Fatalf("%v: vertex-centric reorders a destination's in-edges", kind)
			}
			for _, op := range opPlans {
				ctx := exec.NewCtx(device.New(device.A100()))
				got, err := RunModel(ctx, gc, m, x, part, op)
				if err != nil {
					t.Fatalf("%v plan %v %v: %v", kind, gp, op, err)
				}
				what := fmt.Sprintf("%v plan %v op %+v", kind, gp, op)
				bitwiseEqual(t, what+" vs Forward in task order", got.Data(), want)
				if same {
					bitwiseEqual(t, what+" vs Forward", got.Data(), plain)
					inOrder++
				}
				tensor.Put(got)
			}
		}
	}
	if inOrder == 0 {
		t.Fatal("no plan kept every destination's in-edges in edge-id order")
	}
}

// TestGTaskExecutionReusesOrderedContext: a frozen partition's forwards
// build its task-ordered context once — the second RunModel runs over the
// context the first one built — a different partition replaces it, and
// releasing the caller's context releases the one it keeps.
func TestGTaskExecutionReusesOrderedContext(t *testing.T) {
	gc, m, x := setup(t, nn.SAGE)
	var parts []*core.Partition
	for _, gp := range plansFor(nn.SAGE) {
		if part := core.PartitionGraph(gc.G, gp, allAttrs()); !gc.SameOrder(part.Order) {
			parts = append(parts, part)
		}
	}
	if len(parts) < 2 {
		t.Fatalf("%d plans reorder a destination's in-edges, want 2", len(parts))
	}
	ctx := exec.NewCtx(device.New(device.A100()))
	run := func(part *core.Partition) *nn.GraphCtx {
		t.Helper()
		out, err := RunModel(ctx, gc, m, x, part, Plan{})
		if err != nil {
			t.Fatal(err)
		}
		tensor.Put(out)
		lc, err := gc.OrderedBy(part)
		if err != nil {
			t.Fatal(err)
		}
		return lc
	}
	first := run(parts[0])
	if first == gc {
		t.Fatal("a reordering partition ran over the caller's context")
	}
	if again := run(parts[0]); again != first {
		t.Fatal("the second forward over a frozen partition rebuilt its context")
	}
	other := run(parts[1])
	if other == first || first.CSR != nil {
		t.Fatal("a different partition kept the first partition's context")
	}
	gc.Release()
	if other.CSR != nil {
		t.Fatal("Release kept the task-ordered context")
	}
}

func TestLSTMPlanValidity(t *testing.T) {
	vc := core.VertexCentric()
	if !ValidPlanFor(nn.SAGELSTM, vc) {
		t.Fatal("vertex-centric must be valid for LSTM")
	}
	ec := core.EdgeCentric()
	if ValidPlanFor(nn.SAGELSTM, ec) {
		t.Fatal("edge-centric splits LSTM sequences; must be invalid")
	}
	twoD := core.GraphPlan{Restrictions: []core.Restriction{
		{Attr: core.AttrDstID, Kind: core.Exact, Limit: 4},
		{Attr: core.AttrSrcID, Kind: core.Exact, Limit: 4},
	}}
	if ValidPlanFor(nn.SAGELSTM, twoD) {
		t.Fatal("src-restricted plans permute LSTM sequences; must be invalid")
	}
	if !ValidPlanFor(nn.GCN, ec) {
		t.Fatal("other models accept any plan")
	}
	// RunModel must reject invalid plans
	gc, m, x := setup(t, nn.SAGELSTM)
	part := core.PartitionGraph(gc.G, ec, allAttrs())
	ctx := exec.NewCtx(device.New(device.A100()))
	if _, err := RunModel(ctx, gc, m, x, part, Plan{}); err == nil {
		t.Fatal("expected plan-validity error")
	}
}

func TestBatchingImprovesTaskCost(t *testing.T) {
	// Paper Figure 18a: RGCN gTask uniq(src)=K & uniq(type)=1 — batched
	// beats edge-by-edge by a large factor.
	spec := device.A100()
	sh := LayerShape{Kind: nn.RGCN, F: 128, Fp: 256, Types: 8}
	st := TaskStatsOf{Edges: 128, UniqSrc: 32, UniqDst: 64, UniqType: 1, MaxDeg: 2}
	edgewise := CostTask(spec, sh, st, Plan{})
	batched := CostTask(spec, sh, st, Plan{Batched: true})
	dedup := CostTask(spec, sh, st, Plan{Batched: true, Dedup: true})
	if !(dedup.Seconds < batched.Seconds && batched.Seconds < edgewise.Seconds) {
		t.Fatalf("cost ordering wrong: dedup=%g batched=%g edgewise=%g",
			dedup.Seconds, batched.Seconds, edgewise.Seconds)
	}
	if edgewise.Seconds/dedup.Seconds < 4 {
		t.Fatalf("dedup+batch speedup %.2f×, want ≥ 4× (paper reports 4.33×)",
			edgewise.Seconds/dedup.Seconds)
	}
}

func TestLSTMBatchingUniformDegreesWinsOverSkewed(t *testing.T) {
	// Paper Figure 18b: batching K destinations with uniform degrees
	// (uniq(dst-degree)=min) avoids padding waste.
	spec := device.A100()
	sh := LayerShape{Kind: nn.SAGELSTM, F: 64, Fp: 64}
	uniform := TaskStatsOf{Edges: 128, UniqSrc: 128, UniqDst: 32, UniqType: 1, MaxDeg: 4}
	skewed := TaskStatsOf{Edges: 128, UniqSrc: 128, UniqDst: 32, UniqType: 1, MaxDeg: 64}
	cu := CostTask(spec, sh, uniform, Plan{Batched: true})
	cs := CostTask(spec, sh, skewed, Plan{Batched: true})
	if cu.Seconds >= cs.Seconds {
		t.Fatalf("uniform-degree task %g should beat skewed %g", cu.Seconds, cs.Seconds)
	}
	// batching must also beat sequential edge-by-edge
	seq := CostTask(spec, sh, uniform, Plan{})
	if cu.Seconds >= seq.Seconds {
		t.Fatalf("batched LSTM %g should beat edge-by-edge %g", cu.Seconds, seq.Seconds)
	}
}

func TestCostPartitionCoversAllTasks(t *testing.T) {
	gc, m, x := setup(t, nn.GCN)
	_ = m
	_ = x
	part := core.PartitionGraph(gc.G, core.VertexCentric(), allAttrs())
	costs := CostPartition(device.A100(), part, LayerShape{Kind: nn.GCN, F: 8, Fp: 8}, Plan{Batched: true})
	if len(costs) != part.NumTasks() {
		t.Fatalf("%d costs for %d tasks", len(costs), part.NumTasks())
	}
	total := 0
	for _, c := range costs {
		if c.Seconds < 0 || c.FLOPs < 0 {
			t.Fatalf("negative cost %+v", c)
		}
		total += c.Edges
	}
	if total != gc.NumEdges() {
		t.Fatalf("costs cover %d of %d edges", total, gc.NumEdges())
	}
}

// TestTaskSecondsMatchesCostPartition: pricing a partition's statistics,
// read once, under an operation plan gives CostPartition's seconds bit for
// bit, also on the runs of equal tasks it prices once (edge-centric, and
// fixed-size edge batches).
func TestTaskSecondsMatchesCostPartition(t *testing.T) {
	gc, _, _ := setup(t, nn.RGCN)
	spec := device.A100()
	for _, gp := range []core.GraphPlan{core.VertexCentric(), core.EdgeCentric(), core.WholeGraph(),
		{Name: "edge-batch-32", Restrictions: []core.Restriction{{Attr: core.AttrEdgeID, Kind: core.Exact, Limit: 32}}}} {
		part := core.PartitionGraph(gc.G, gp, allAttrs())
		stats := PartitionStats(part)
		for kind := nn.ModelKind(0); kind < nn.NumModels; kind++ {
			sh := LayerShape{Kind: kind, F: 8, Fp: 8, Types: 4}
			for _, op := range []Plan{{}, {Batched: true}, {Batched: true, Dedup: true}} {
				secs := TaskSeconds(spec, stats, sh, op)
				for ti, c := range CostPartition(spec, part, sh, op) {
					if secs[ti] != c.Seconds {
						t.Fatalf("%v %v %v task %d: TaskSeconds %v, CostPartition %v", gp.Name, kind, op, ti, secs[ti], c.Seconds)
					}
				}
			}
		}
	}
}

func TestGTaskFusedLaunchesOneKernelPerLayerPlusDense(t *testing.T) {
	gc, m, x := setup(t, nn.RGCN)
	part := core.PartitionGraph(gc.G, core.VertexCentric(), allAttrs())
	ctx := exec.NewCtx(device.New(device.A100()))
	if _, err := RunModel(ctx, gc, m, x, part, Plan{Batched: true, Dedup: true}); err != nil {
		t.Fatal(err)
	}
	st := ctx.Dev.Stats()
	// per layer: dense kernels (1 for RGCN self) + 1 fused = 2; 2 layers = 4
	if st.Kernels != 4 {
		t.Fatalf("kernels = %d, want 4", st.Kernels)
	}
}

func TestDenseKernelsPerModel(t *testing.T) {
	for kind := nn.ModelKind(0); kind < nn.NumModels; kind++ {
		ks := DenseKernels(LayerShape{Kind: kind, F: 16, Fp: 8}, 100, 100)
		if len(ks) == 0 {
			t.Fatalf("%v: no dense kernels", kind)
		}
		for _, k := range ks {
			if !k.TensorCore || k.FLOPs <= 0 {
				t.Fatalf("%v: dense kernel %+v must be TC with work", kind, k)
			}
		}
	}
}
