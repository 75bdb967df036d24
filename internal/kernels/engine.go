package kernels

import (
	"fmt"
	"strings"

	"wisegraph/internal/core"
	"wisegraph/internal/device"
	"wisegraph/internal/exec"
	"wisegraph/internal/nn"
	"wisegraph/internal/tensor"
)

// Engine is one accounting of a GNN layer over the gTasks of a graph
// partition: which kernels the layer is charged as on the simulated device
// and what global-memory traffic each task is modeled to move. Every model
// has one body, its nn layer, and every engine runs it over the same edge
// order, so the numeric output never depends on the engine. Engines come
// from Select (the zero value runs nothing):
//
//   - "blocked": the composed program's one fused cost-model kernel per
//     layer ("gtask.fused"), its traffic priced as an edge-by-edge
//     dataflow's — a destination-row read-modify-write per edge
//     (blockedTaskBytes), which the CPU no longer runs.
//   - "fused": one streaming kernel ("gtask.stream") priced by the device
//     model of a register-resident accumulator per same-destination run —
//     one row load + store per run (fusedTaskBytes). That is what executes:
//     the layers aggregate through nn.EdgeSpMM, which holds each
//     destination row in registers across its run (tensor.AccumRun).
//   - "device": every micro-kernel stage of the composed program (micro.go)
//     launched as its own named kernel, so device.KernelStats exposes a
//     per-stage breakdown that can be checked against the fused engine's
//     bytes-moved model.
type Engine struct {
	name string
	// account launches the layer's gTask kernel(s) on ctx's device.
	account func(ctx *exec.Ctx, t pricedTasks)
	// taskBytes models the global-memory traffic of task ti under this
	// engine's dataflow.
	taskBytes func(t pricedTasks, ti int) float64
}

var engines = []Engine{
	{name: "blocked", account: oneKernel("gtask.fused", composedTaskBytes), taskBytes: blockedTaskBytes},
	{name: "fused", account: oneKernel("gtask.stream", fusedTaskBytes), taskBytes: fusedTaskBytes},
	{name: "device", account: stageKernels, taskBytes: composedTaskBytes},
}

// Name is the identifier exec.Ctx.Engine and Select take.
func (e Engine) Name() string { return e.name }

// EngineNames lists the selectable engines in stable order.
func EngineNames() []string {
	names := make([]string, len(engines))
	for i, e := range engines {
		names[i] = e.name
	}
	return names
}

// Select resolves an engine by name; "" selects the blocked reference.
func Select(name string) (Engine, error) {
	if name == "" {
		return engines[0], nil
	}
	for _, e := range engines {
		if e.name == name {
			return e, nil
		}
	}
	return Engine{}, fmt.Errorf("kernels: unknown engine %q (have %s)", name, strings.Join(EngineNames(), "|"))
}

// pricedTasks is what pricing a layer's gTasks takes, built once per call:
// the program composed for the shape and operation plan, and every task's
// statistics.
type pricedTasks struct {
	sh    LayerShape
	plan  Plan
	prog  Program
	part  *core.Partition
	stats []TaskStatsOf
}

func priceTasks(sh LayerShape, part *core.Partition, plan Plan) pricedTasks {
	t := pricedTasks{sh: sh, plan: plan, prog: Compose(sh, plan), part: part, stats: make([]TaskStatsOf, part.NumTasks())}
	for ti := range t.stats {
		t.stats[ti] = StatsOf(part, ti)
	}
	return t
}

// LayerBytes returns the engine's modeled global-memory traffic for one
// layer's aggregation path (the gTask kernel; the shared dense transforms
// are identical across engines and excluded).
func (e Engine) LayerBytes(sh LayerShape, part *core.Partition, plan Plan) float64 {
	t := priceTasks(sh, part, plan)
	var total float64
	for ti := range t.stats {
		total += e.taskBytes(t, ti)
	}
	return total
}

// RunLayer accounts and (when ctx.Compute) computes one layer with input
// rows x [V,F] over gc, whose edges are part's in task order and whose
// destination rows are the rows produced (see nn.NewGraphCtxOrder),
// returning a compact [gc.NumRows(),F'] tensor. The dense transforms and
// the gTask kernel(s) are launched on ctx's device; the arithmetic is the
// layer's one body (Infer), the same under every engine.
func (e Engine) RunLayer(ctx *exec.Ctx, gc *nn.GraphCtx, layer nn.Layer, sh LayerShape, x *tensor.Tensor, part *core.Partition, plan Plan) *tensor.Tensor {
	for _, k := range DenseKernels(sh, gc.NumVertices(), gc.NumRows()) {
		ctx.Launch(k)
	}
	e.account(ctx, priceTasks(sh, part, plan))
	if !ctx.Compute {
		return nil
	}
	return layer.Infer(gc, x)
}

// oneKernel accounts the layer as a single launch whose work items are the
// tasks: each does the composed program's arithmetic and moves bytes(t, ti).
func oneKernel(name string, bytes func(t pricedTasks, ti int) float64) func(*exec.Ctx, pricedTasks) {
	return func(ctx *exec.Ctx, t pricedTasks) {
		times := make([]float64, len(t.stats))
		var flops, total float64
		for ti, st := range t.stats {
			tf, _ := t.prog.Totals(st)
			tb := bytes(t, ti)
			flops += tf
			total += tb
			times[ti] = perUnit(ctx.Dev.Spec, tf, tb, t.prog.TC(st))
		}
		ctx.Launch(device.Kernel{
			Name: name, Cat: device.CatNeural,
			FLOPs: flops, Bytes: total, UnitTimes: times,
		})
	}
}

// stageKernels accounts the composed program stage by stage: each
// micro-kernel (load-src, load-ids, accumulate, store-edge, ...) is launched
// as its own kernel named "gtask.<stage>", with per-task unit times, so the
// cost model's stage-level predictions land in device.KernelStats where they
// can be diffed against the fused engine's bytes-moved claims.
func stageKernels(ctx *exec.Ctx, t pricedTasks) {
	for _, s := range t.prog.Stages {
		var flops, bytes float64
		times := make([]float64, len(t.stats))
		for ti, st := range t.stats {
			var sf, sb float64
			if s.FLOPs != nil {
				sf = s.FLOPs(st)
			}
			if s.Elems != nil {
				sb = s.Elems(st) * fb
			}
			flops += sf
			bytes += sb
			times[ti] = perUnit(ctx.Dev.Spec, sf, sb, s.Kind == StageCompute && t.prog.TC(st))
		}
		cat := device.CatIndexing
		if s.Kind == StageCompute || s.Kind == StageReduce {
			cat = device.CatNeural
		}
		ctx.Launch(device.Kernel{
			Name: "gtask." + s.Name, Cat: cat,
			FLOPs: flops, Bytes: bytes, UnitTimes: times,
		})
	}
}

// composedTaskBytes is the composed program's modeled traffic for one task
// — the cost model's prediction for the paper's target fused kernel.
func composedTaskBytes(t pricedTasks, ti int) float64 {
	_, b := t.prog.Totals(t.stats[ti])
	return b
}

// blockedTaskBytes models the traffic of the edge-by-edge dataflow for one
// task: every edge costs a source-row read plus a destination-row
// read-modify-write (three row crossings per edge), RGCN's edge-by-edge
// path refetches the type weight per edge, and the dedup'd path
// materializes the pair-product buffer it then re-reads per edge.
func blockedTaskBytes(t pricedTasks, ti int) float64 {
	sh, st, plan := t.sh, t.stats[ti], t.plan
	f, fp := float64(sh.F), float64(sh.Fp)
	e := float64(st.Edges)
	switch sh.Kind {
	case nn.GCN, nn.SAGE:
		w := fp
		if sh.Kind == nn.SAGE {
			w = f
		}
		return (3*e*w + e) * fb
	case nn.RGCN:
		if plan.Dedup {
			pairs := float64(st.UniqSrc) * float64(st.UniqType)
			return (float64(st.UniqSrc)*f + float64(st.UniqType)*f*fp +
				pairs*fp + e*fp + 2*e + 2*e*fp) * fb
		}
		// per edge: source row, per-edge weight refetch, message-buffer
		// write + read, destination read-modify-write, type id
		return (e*f + e*f*fp + 2*e*fp + 2*e*fp + e) * fb
	case nn.GAT:
		// aggregation pass: z row per edge, destination read-modify-
		// write, plus the score/softmax index traffic
		return (3*e*fp + 4*e) * fb
	case nn.SAGELSTM:
		// the recurrence streams identically under every engine
		return composedTaskBytes(t, ti)
	}
	return 0
}

// fusedTaskBytes is the device model of the streaming kernel's global-
// memory traffic for one task: source rows cross once per edge, the index arrays once, each
// destination run costs one accumulator load + store (instead of a
// read-modify-write per edge), and weights stay resident across the task —
// no per-edge [e,F'] store/reload and no per-edge weight refetch.
func fusedTaskBytes(t pricedTasks, ti int) float64 {
	sh, st, plan := t.sh, t.stats[ti], t.plan
	f, fp := float64(sh.F), float64(sh.Fp)
	e := float64(st.Edges)
	r := float64(taskRuns(t.part.Graph.Dst, t.part.TaskEdges(ti)))
	switch sh.Kind {
	case nn.GCN, nn.SAGE:
		w := fp
		if sh.Kind == nn.SAGE {
			w = f
		}
		return (e*w + e + 2*r*w) * fb
	case nn.RGCN:
		if plan.Dedup {
			// pair products written once, re-read per edge through the
			// dedup maps; run accumulators replace per-edge rmw
			pairs := float64(st.UniqSrc) * float64(st.UniqType)
			return (float64(st.UniqSrc)*f + float64(st.UniqType)*f*fp +
				pairs*fp + e*fp + 2*e + 2*r*fp) * fb
		}
		return (e*f + float64(st.UniqType)*f*fp + e + 2*r*fp) * fb
	case nn.GAT:
		return (e*fp + 4*e + 2*r*fp) * fb
	case nn.SAGELSTM:
		// the recurrence streams identically under every engine
		return composedTaskBytes(t, ti)
	}
	return 0
}
