package kernels

import (
	"fmt"

	"wisegraph/internal/core"
	"wisegraph/internal/device"
	"wisegraph/internal/exec"
	"wisegraph/internal/nn"
	"wisegraph/internal/obs"
	"wisegraph/internal/tensor"
)

// RunModel executes a full forward pass with the gTask strategy, each layer
// charged to ctx's device as the search prices it (runLayer). The
// arithmetic is the model's own layers (nn.Layer.Infer) over gc's graph
// with each destination's in-edges in the partition's task order — gc
// itself when its edges are already in that order, else the context
// gc.OrderedBy keeps for part — so the logits are m.Forward over that
// order, bit for bit.
func RunModel(ctx *exec.Ctx, gc *nn.GraphCtx, m *nn.Model, x *tensor.Tensor, part *core.Partition, plan Plan) (*tensor.Tensor, error) {
	if err := checkPlan(m.Cfg.Kind, part.Plan); err != nil {
		return nil, err
	}
	sp := obs.Begin(obs.StageExec, ctx.TraceID)
	defer sp.End()
	gc, err := gc.OrderedBy(part)
	if err != nil {
		return nil, err
	}
	cur := x
	for li := range m.Layers() {
		out := runLayer(ctx, gc, m, li, cur, part, plan)
		prev := cur
		if li < len(m.Layers())-1 {
			cur = tensor.ReLU(tensor.Get(out.Shape()...), out)
			tensor.Put(out)
		} else {
			cur = out
		}
		if prev != x {
			tensor.Put(prev)
		}
	}
	return cur, nil
}

// RunModelLayerRows executes exactly one layer of the model over gc, whose
// edges must be in part's task order, and returns the rows of gc.Rows
// (nil: every vertex) as a compact [gc.NumRows(),F'] tensor — the
// layer-boundary entry the serving tier's leveled forward uses: a sampled
// block's targets are its only destinations, so only their rows are
// transformed (and charged: the destination-side dense kernels at
// gc.NumRows() rows). The caller builds gc (nn.NewGraphCtxOrder over
// part.Order, or a context in that order already such as
// nn.NewGraphCtxRows for a block born in it) and so owns the row set's
// validation. No activation is applied: the caller owns the ReLU (and must
// match RunModel's placement — after every layer but the last) so cached
// rows and freshly computed rows go through identical math. The span
// accounting mirrors RunModel: the call is recorded under StageExec
// against ctx.TraceID.
func RunModelLayerRows(ctx *exec.Ctx, gc *nn.GraphCtx, m *nn.Model, li int, x *tensor.Tensor, part *core.Partition, plan Plan) (*tensor.Tensor, error) {
	sp := obs.Begin(obs.StageExec, ctx.TraceID)
	defer sp.End()
	if err := checkPlan(m.Cfg.Kind, part.Plan); err != nil {
		return nil, err
	}
	if li < 0 || li >= len(m.Layers()) {
		return nil, fmt.Errorf("kernels: layer %d out of range [0,%d)", li, len(m.Layers()))
	}
	return runLayer(ctx, gc, m, li, x, part, plan), nil
}

// runLayer computes layer li of m with input rows x [V,F] over gc, whose
// edges are part's in task order and whose destination rows are the rows
// produced (see nn.NewGraphCtxOrder), returning a compact
// [gc.NumRows(),F'] tensor. It charges ctx's device what the search prices
// the layer at (joint.LayerTime over joint.UniformSchedule): the
// DenseKernels launches over V input and gc.NumRows() destination rows,
// then one "gtask.fused" kernel whose work items are the tasks
// CostPartition prices. The arithmetic is the layer's one body (Infer);
// the operation plan changes only the charge.
func runLayer(ctx *exec.Ctx, gc *nn.GraphCtx, m *nn.Model, li int, x *tensor.Tensor, part *core.Partition, plan Plan) *tensor.Tensor {
	layer := m.Layers()[li]
	sh := LayerShape{Kind: m.Cfg.Kind, F: layer.InDim(), Fp: layer.OutDim(), Types: m.Cfg.NumTypes}
	for _, k := range DenseKernels(sh, gc.NumVertices(), gc.NumRows()) {
		ctx.Launch(k)
	}
	costs := CostPartition(ctx.Dev.Spec, part, sh, plan)
	times := make([]float64, len(costs))
	var flops, bytes float64
	for ti, c := range costs {
		flops += c.FLOPs
		bytes += c.Bytes
		times[ti] = c.Seconds
	}
	ctx.Launch(device.Kernel{Name: "gtask.fused", Cat: device.CatNeural, FLOPs: flops, Bytes: bytes, UnitTimes: times})
	return layer.Infer(gc, x)
}

// RunModelLayer is RunModelLayerRows with every vertex of gc's graph as a
// destination, over the context gc.OrderedBy keeps for part (gc itself
// when its edges are already in part's task order): the output has one
// row per input row.
func RunModelLayer(ctx *exec.Ctx, gc *nn.GraphCtx, m *nn.Model, li int, x *tensor.Tensor, part *core.Partition, plan Plan) (*tensor.Tensor, error) {
	lc, err := gc.OrderedBy(part)
	if err != nil {
		return nil, err
	}
	return RunModelLayerRows(ctx, lc, m, li, x, part, plan)
}

// checkPlan rejects a graph plan that cannot execute the model
// (ValidPlanFor).
func checkPlan(kind nn.ModelKind, plan core.GraphPlan) error {
	if !ValidPlanFor(kind, plan) {
		return fmt.Errorf("kernels: plan %v cannot execute %v", plan, kind)
	}
	return nil
}

// taskRuns counts one task's maximal same-destination runs (consecutive
// task edges sharing a dst): the streaming kernel's granularity in the
// device model (fusedTaskBytes).
func taskRuns(dst, edges []int32) int {
	runs := 0
	for i := 0; i < len(edges); runs++ {
		d := dst[edges[i]]
		i++
		for i < len(edges) && dst[edges[i]] == d {
			i++
		}
	}
	return runs
}
