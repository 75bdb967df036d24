package kernels

import (
	"fmt"

	"wisegraph/internal/core"
	"wisegraph/internal/exec"
	"wisegraph/internal/nn"
	"wisegraph/internal/obs"
	"wisegraph/internal/tensor"
)

// RunModel executes a full forward pass with the gTask strategy: shared
// dense transforms as per-layer tensor-core kernels, then one fused kernel
// per layer whose work items are the partition's gTasks, accounted by the
// Engine selected by ctx.Engine (see engine.go). The arithmetic is the
// model's own layers (nn.Layer.Infer) over gc's graph with each
// destination's in-edges in the partition's task order — gc itself when
// its edges are already in that order, else the context gc.OrderedBy
// keeps for part — so the logits are m.Forward over that order, bit for
// bit.
func RunModel(ctx *exec.Ctx, gc *nn.GraphCtx, m *nn.Model, x *tensor.Tensor, part *core.Partition, plan Plan) (*tensor.Tensor, error) {
	eng, err := selectFor(ctx.Engine, m.Cfg.Kind, part.Plan)
	if err != nil {
		return nil, err
	}
	sp := obs.Begin(obs.StageExec, ctx.TraceID)
	defer sp.End()
	if ctx.Compute {
		if gc, err = gc.OrderedBy(part); err != nil {
			return nil, err
		}
	}
	cur := x
	for li, layer := range m.Layers() {
		sh := LayerShape{Kind: m.Cfg.Kind, F: layer.InDim(), Fp: layer.OutDim(), Types: m.Cfg.NumTypes}
		out := eng.RunLayer(ctx, gc, layer, sh, cur, part, plan)
		if ctx.Compute {
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
	}
	if !ctx.Compute {
		return nil, nil
	}
	return cur, nil
}

// RunModelLayerRows executes exactly one layer of the model through the
// engine selected by ctx.Engine over gc, whose edges must be in part's
// task order, and returns the rows of gc.Rows (nil: every vertex) as a
// compact [gc.NumRows(),F'] tensor — the layer-boundary entry the serving
// tier's leveled forward uses: a sampled block's targets are its only
// destinations, so only their rows are transformed. The caller builds gc
// (nn.NewGraphCtxOrder over part.Order, or a context in that order already
// such as nn.NewGraphCtxRows for a block born in it) and so owns the row
// set's validation. No activation is applied: the caller owns the ReLU (and
// must match RunModel's placement — after every layer but the last) so
// cached rows and freshly computed rows go through identical math. The
// span accounting mirrors RunModel: the call is recorded under StageExec
// against ctx.TraceID.
func RunModelLayerRows(ctx *exec.Ctx, gc *nn.GraphCtx, m *nn.Model, li int, x *tensor.Tensor, part *core.Partition, plan Plan) (*tensor.Tensor, error) {
	sp := obs.Begin(obs.StageExec, ctx.TraceID)
	defer sp.End()
	eng, err := selectFor(ctx.Engine, m.Cfg.Kind, part.Plan)
	if err != nil {
		return nil, err
	}
	layers := m.Layers()
	if li < 0 || li >= len(layers) {
		return nil, fmt.Errorf("kernels: layer %d out of range [0,%d)", li, len(layers))
	}
	layer := layers[li]
	sh := LayerShape{Kind: m.Cfg.Kind, F: layer.InDim(), Fp: layer.OutDim(), Types: m.Cfg.NumTypes}
	return eng.RunLayer(ctx, gc, layer, sh, x, part, plan), nil
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

// selectFor resolves the engine and rejects a graph plan that cannot
// execute the model (ValidPlanFor): every engine runs every model under
// every valid plan.
func selectFor(name string, kind nn.ModelKind, plan core.GraphPlan) (Engine, error) {
	eng, err := Select(name)
	if err == nil && !ValidPlanFor(kind, plan) {
		err = fmt.Errorf("kernels: plan %v cannot execute %v", plan, kind)
	}
	return eng, err
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
