// RGCN on a heterogeneous graph: demonstrates the paper's running example
// end to end — the per-relation MLP workload, the gTask plan that batches
// sources within one edge type (uniq(src-id)=K & uniq(edge-type)=1), and
// the duplicated-data DFG transformation that shares MLP computation
// across edges (paper Figures 9, 10 and 18a).
package main

import (
	"fmt"
	"log"
	"math"

	"wisegraph"
	"wisegraph/internal/core"
	"wisegraph/internal/device"
	"wisegraph/internal/exec"
	"wisegraph/internal/joint"
	"wisegraph/internal/kernels"
	"wisegraph/internal/nn"
	"wisegraph/internal/pattern"
)

func main() {
	// A typed power-law graph: 8 relation types, heavy hubs.
	ds, err := wisegraph.LoadDataset("AR", wisegraph.DatasetOptions{Scale: 200, Seed: 3})
	if err != nil {
		log.Fatal(err)
	}
	g := ds.Graph
	fmt.Printf("heterogeneous graph: %v\n", g)

	// 1. The joint search discovers the paper's RGCN plan.
	res := wisegraph.Optimize(g, wisegraph.RGCN, 64, g.NumTypes, wisegraph.A100())
	fmt.Printf("\nselected graph plan: %v\n", res.GraphPlan)
	fmt.Printf("selected op plan:    %v (dedup = shared MLP across duplicate (src,type) pairs)\n", res.OpPlan)

	// 2. Inspect the gTask-level data patterns that justified it.
	part := res.Partition
	pp := pattern.Analyze(part, []core.Attr{core.AttrSrcID, core.AttrEdgeType, core.AttrDstID})
	fmt.Printf("\ngTask patterns (%d tasks, median %d edges):\n", pp.NumTasks, pp.MedianEdges)
	fmt.Printf("  duplicated src-id in %.0f%% of tasks, edge-type in %.0f%%\n",
		pp.DupFraction[core.AttrSrcID]*100, pp.DupFraction[core.AttrEdgeType]*100)

	// 3. Compare modeled execution against edge-centric with naive kernels.
	sp := wisegraph.A100()
	sh := kernels.LayerShape{Kind: nn.RGCN, F: 64, Fp: 64, Types: g.NumTypes}
	naivePart := wisegraph.Partition(g, wisegraph.EdgeCentricPlan())
	naive := joint.LayerTime(sp, sh, g.NumVertices, joint.UniformSchedule(sp, naivePart, sh, kernels.Plan{}))
	tuned := joint.LayerTime(sp, sh, g.NumVertices, joint.UniformSchedule(sp, part, sh, res.OpPlan))
	fmt.Printf("\nmodeled layer time: edge-centric naive %.3f ms → tuned gTask %.3f ms (%.1fx)\n",
		naive*1e3, tuned*1e3, naive/tuned)

	// 4. Train the model and verify the tuned execution computes the same
	// predictions: the gTask forward is the model's own forward with each
	// destination's in-edges in the partition's order.
	tr, err := wisegraph.NewTrainer(ds, wisegraph.ModelConfig{
		Kind: wisegraph.RGCN, Hidden: 32, Layers: 2, Seed: 3,
	}, 0.01)
	if err != nil {
		log.Fatal(err)
	}
	for ep := 0; ep < 10; ep++ {
		tr.Epoch()
	}
	ctx := exec.NewCtx(device.New(sp))
	logits, err := kernels.RunModel(ctx, tr.GC, tr.Model, ds.Features, part, res.OpPlan)
	if err != nil {
		log.Fatal(err)
	}
	ordered, err := nn.NewGraphCtxOrder(g, part.Order, nil)
	if err != nil {
		log.Fatal(err)
	}
	ref := tr.Model.Forward(ordered, ds.Features)
	differ := 0
	for i, v := range logits.Data() {
		if math.Float32bits(v) != math.Float32bits(ref.Data()[i]) {
			differ++
		}
	}
	fmt.Printf("gTask logits differing from the forward in partition order: %d of %d (bitwise)\n",
		differ, len(logits.Data()))
	fmt.Printf("gTask kernel launches for the forward pass: %d (fused; tensor-centric would need dozens)\n",
		ctx.Dev.Stats().Kernels)
}
