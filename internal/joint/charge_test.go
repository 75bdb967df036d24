package joint_test

import (
	"fmt"
	"testing"

	"wisegraph/internal/core"
	"wisegraph/internal/dataset"
	"wisegraph/internal/device"
	"wisegraph/internal/exec"
	"wisegraph/internal/graph"
	"wisegraph/internal/graph/gen"
	"wisegraph/internal/joint"
	"wisegraph/internal/kernels"
	"wisegraph/internal/nn"
	"wisegraph/internal/tensor"
)

// wantCharge is what the search prices one layer at over v input and d
// destination rows under op: the dense kernels, then the partition's tasks
// as one kernel. Each sum runs in the order the device adds its launches.
func wantCharge(spec device.Spec, part *core.Partition, sh kernels.LayerShape, op kernels.Plan, v, d int) (secs, flops, bytes float64) {
	for _, k := range kernels.DenseKernels(sh, v, d) {
		secs += spec.LaunchOverhead + spec.Time(k)
		flops += k.FLOPs
		bytes += k.Bytes
	}
	var tf, tb float64
	for _, c := range kernels.CostPartition(spec, part, sh, op) {
		tf += c.FLOPs
		tb += c.Bytes
	}
	secs += spec.LaunchOverhead + joint.UniformSchedule(spec, part, sh, op).Makespan(spec.NumUnits)
	return secs, flops + tf, bytes + tb
}

// checkCharge holds ctx's device to exactly the wanted charge: the dense
// kernels plus one gTask kernel, bit for bit.
func checkCharge(t *testing.T, what string, ctx *exec.Ctx, sh kernels.LayerShape, secs, flops, bytes float64) {
	t.Helper()
	st := ctx.Dev.Stats()
	if want := int64(len(kernels.DenseKernels(sh, 1, 1)) + 1); st.Kernels != want {
		t.Fatalf("%s: %d kernels launched, want %d", what, st.Kernels, want)
	}
	if st.SimSeconds != secs || st.FLOPs != flops || st.Bytes != bytes {
		t.Fatalf("%s: device charged (%v s, %v FLOPs, %v B), search prices (%v s, %v FLOPs, %v B)",
			what, st.SimSeconds, st.FLOPs, st.Bytes, secs, flops, bytes)
	}
}

// TestExecutorChargesWhatSearchPrices is the one-accounting contract: for
// every model, under the plan the search picks on a small power-law graph,
// each layer the gTask executor runs leaves the device charged exactly
// joint.LayerTime over joint.UniformSchedule, with the FLOPs and bytes of
// the dense kernels plus every task CostPartition prices. On a destination
// row subset (RunModelLayerRows) the destination-side dense kernels are
// charged at the subset's rows.
func TestExecutorChargesWhatSearchPrices(t *testing.T) {
	const types = 4
	g := gen.Generate(gen.Config{
		NumVertices: 300, NumEdges: 3000, Kind: gen.PowerLaw, Skew: 1.1,
		NumTypes: types, Seed: 7,
	}).Graph
	spec := device.A100()
	attrs := []core.Attr{core.AttrSrcID, core.AttrDstID, core.AttrEdgeType, core.AttrDstDegree}
	// The row subset: every third vertex, with only the edges that end in it.
	var rows []int32
	sub := &graph.Graph{NumVertices: g.NumVertices, NumTypes: types}
	for v := 0; v < g.NumVertices; v += 3 {
		rows = append(rows, int32(v))
	}
	for ei, d := range g.Dst {
		if d%3 == 0 {
			sub.Src, sub.Dst, sub.Type = append(sub.Src, g.Src[ei]), append(sub.Dst, d), append(sub.Type, g.Type[ei])
		}
	}
	for kind := nn.ModelKind(0); kind < nn.NumModels; kind++ {
		t.Run(kind.String(), func(t *testing.T) {
			m, err := nn.NewModel(nn.Config{Kind: kind, InDim: 12, Hidden: 16, OutDim: 8, Layers: 2, Heads: 2, NumTypes: types, Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			res := joint.Search(g, kind, 16, 16, types, joint.Options{Spec: spec})
			gc := nn.NewGraphCtx(g)
			subPart := core.PartitionGraph(sub, res.GraphPlan, attrs)
			subCtx, err := nn.NewGraphCtxOrder(sub, subPart.Order, rows)
			if err != nil {
				t.Fatal(err)
			}
			defer subCtx.Release()
			for li, layer := range m.Layers() {
				sh := kernels.LayerShape{Kind: kind, F: layer.InDim(), Fp: layer.OutDim(), Types: types}
				x := tensor.New(g.NumVertices, layer.InDim())
				tensor.Uniform(x, tensor.NewRNG(uint64(li)+1), -1, 1)

				ctx := exec.NewCtx(device.New(spec))
				out, err := kernels.RunModelLayer(ctx, gc, m, li, x, res.Partition, res.OpPlan)
				if err != nil {
					t.Fatal(err)
				}
				tensor.Put(out)
				what := fmt.Sprintf("layer %d %s %v", li, res.GraphPlan.Name, res.OpPlan)
				secs, flops, bytes := wantCharge(spec, res.Partition, sh, res.OpPlan, g.NumVertices, g.NumVertices)
				layerTime := joint.LayerTime(spec, sh, g.NumVertices, joint.UniformSchedule(spec, res.Partition, sh, res.OpPlan))
				if got := ctx.Dev.Stats().SimSeconds; got != layerTime {
					t.Fatalf("%s: device charged %v s, joint.LayerTime %v s", what, got, layerTime)
				}
				checkCharge(t, what, ctx, sh, secs, flops, bytes)

				ctx = exec.NewCtx(device.New(spec))
				out, err = kernels.RunModelLayerRows(ctx, subCtx, m, li, x, subPart, res.OpPlan)
				if err != nil {
					t.Fatal(err)
				}
				tensor.Put(out)
				secs, flops, bytes = wantCharge(spec, subPart, sh, res.OpPlan, g.NumVertices, len(rows))
				checkCharge(t, what+" on a row subset", ctx, sh, secs, flops, bytes)
			}
		})
	}
}

// TestDifferentiatedPickChargedUniform pins a known gap between the search
// and the executor: when stage 3 wins (res.Differentiated), res.Seconds
// prices the differentiated schedule, but the executor charges the pick
// at its uniform one. On AR (seed 1) SAGE-LSTM's 64 → 64 pick,
// dst-batch-32, splits two overfill hub tasks, so the executor's device
// reads 4.21× what the search priced. An executor that charges the
// differentiated schedule turns this test red: then pin 1.00 instead.
func TestDifferentiatedPickChargedUniform(t *testing.T) {
	ds, err := dataset.Load("AR", dataset.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	g, spec := ds.Graph, device.A100()
	res := joint.Search(g, nn.SAGELSTM, 64, 64, g.NumTypes, joint.Options{Spec: spec})
	if !res.Differentiated {
		t.Fatalf("AR SAGE-LSTM: stage 3 did not win on %v", res.GraphPlan)
	}
	m, err := nn.NewModel(nn.Config{Kind: nn.SAGELSTM, InDim: 64, Hidden: 64, OutDim: 64, Layers: 1, NumTypes: g.NumTypes, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(g.NumVertices, 64)
	tensor.Uniform(x, tensor.NewRNG(1), -1, 1)
	ctx := exec.NewCtx(device.New(spec))
	out, err := kernels.RunModelLayer(ctx, nn.NewGraphCtx(g), m, 0, x, res.Partition, res.OpPlan)
	if err != nil {
		t.Fatal(err)
	}
	tensor.Put(out)
	if got := fmt.Sprintf("%.2f", ctx.Dev.Stats().SimSeconds/res.Seconds); got != "4.21" {
		t.Fatalf("AR SAGE-LSTM %v: executor charges %s× what the search priced, pinned 4.21×", res.GraphPlan, got)
	}
}
