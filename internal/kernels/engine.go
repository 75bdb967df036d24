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

// Engine is one strategy for executing a GNN layer over the gTasks of a
// graph partition. All engines are bitwise-identical in their numeric
// output — they differ only in dataflow (how many times each operand
// crosses memory) and in the kernels they account against the simulated
// device:
//
//   - "blocked": the reference gather → matmul → scatter-add passes, one
//     cost-model kernel per layer (the historical path).
//   - "fused": streams each destination run exactly once — source rows are
//     gathered, multiplied and accumulated into a register-resident
//     destination accumulator without materializing the per-edge [E,F']
//     intermediate.
//   - "device": blocked numerics, but every micro-kernel stage of the
//     composed program (micro.go) is launched as its own named kernel so
//     device.KernelStats exposes a per-stage breakdown that can be checked
//     against the fused engine's bytes-moved model.
type Engine interface {
	// Name is the stable identifier used by -engine flags and benchmarks.
	Name() string
	// Probe reports whether the engine can execute the model under the
	// graph partition plan. A nil error is a commitment: RunLayer must
	// then produce output bitwise-equal to the blocked engine.
	Probe(kind nn.ModelKind, plan core.GraphPlan) error
	// RunLayer accounts and (when ctx.Compute) computes one layer over the
	// block gc with input rows x [V,F], producing the rows of dsts — local
	// vertex ids, strictly ascending — as a compact [len(dsts),F'] tensor
	// in that order. Work is split by who reads it:
	//
	//   - destination-side work runs over dsts only: the self and
	//     neighbour transforms of SAGE, RGCN and SAGE-LSTM, the
	//     aggregation and output buffers, GAT's right projection, softmax
	//     maxima and sums, the bias;
	//   - source-side transforms that any edge source may need stay over
	//     all V input rows: GCN's X·W, GAT's Z and left projection.
	//
	// Either way each output element sees the operations of the all-rows
	// execution in the same order, so row i is bitwise-equal to row
	// dsts[i] of the execution with dsts = 0..V-1 — which is how full-
	// graph callers run. Ids are the block's own (ascending parent order),
	// never renumbered targets-first: the partition sorts edges by local
	// id, so renumbering would make a destination's summation order depend
	// on what else is in the batch. Every edge must end in dsts; one that
	// does not is an error, not a dropped contribution. Of gc an engine
	// reads the edge list gc.G and the vertex count, nothing derived: the
	// serving path passes a context with only G set.
	RunLayer(ctx *exec.Ctx, gc *nn.GraphCtx, layer nn.Layer, sh LayerShape, x *tensor.Tensor, dsts []int32, part *core.Partition, plan Plan) (*tensor.Tensor, error)
	// LayerBytes returns the engine's modeled global-memory traffic for
	// one layer's aggregation path (the fused gTask kernel; the shared
	// dense transforms are identical across engines and excluded).
	LayerBytes(sh LayerShape, part *core.Partition, plan Plan) float64
}

// EngineNames lists the selectable engines in stable order.
func EngineNames() []string { return []string{"blocked", "fused", "device"} }

// Select resolves an engine by name; "" selects the blocked reference.
func Select(name string) (Engine, error) {
	switch name {
	case "", "blocked":
		return blockedEngine{}, nil
	case "fused":
		return fusedEngine{}, nil
	case "device":
		return deviceEngine{}, nil
	}
	return nil, fmt.Errorf("kernels: unknown engine %q (have %s)", name, strings.Join(EngineNames(), "|"))
}

// probePlan is the shared capability check: every engine handles every
// model, subject to the plan-validity rules of ValidPlanFor.
func probePlan(kind nn.ModelKind, plan core.GraphPlan) error {
	if !ValidPlanFor(kind, plan) {
		return fmt.Errorf("kernels: plan %v cannot execute %v", plan, kind)
	}
	return nil
}

// composedLayerBytes sums the composed program's modeled traffic over the
// partition's tasks — the cost model's prediction for the paper's target
// fused kernel (what the device engine accounts stage by stage).
func composedLayerBytes(sh LayerShape, part *core.Partition, plan Plan) float64 {
	prog := Compose(sh, plan)
	var total float64
	for ti := 0; ti < part.NumTasks(); ti++ {
		_, b := prog.Totals(StatsOf(part, ti))
		total += b
	}
	return total
}

// blockedTaskBytes models the traffic of computeLayer's actual dataflow
// for one task: separate gather → transform → scatter passes where every
// edge costs a source-row read plus a destination-row read-modify-write
// (three row crossings per edge), RGCN's edge-by-edge path refetches the
// type weight per edge, and the dedup'd path materializes the pair-
// product buffer it then re-reads per edge.
func blockedTaskBytes(sh LayerShape, st TaskStatsOf, plan Plan) float64 {
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
		_, b := Compose(sh, plan).Totals(st)
		return b
	}
	return 0
}

// blockedLayerBytes sums blockedTaskBytes over the partition.
func blockedLayerBytes(sh LayerShape, part *core.Partition, plan Plan) float64 {
	var total float64
	for ti := 0; ti < part.NumTasks(); ti++ {
		total += blockedTaskBytes(sh, StatsOf(part, ti), plan)
	}
	return total
}

// blockedEngine is the reference path: separate gather, matmul and
// scatter-add passes accounted as one fused cost-model kernel per layer.
type blockedEngine struct{}

func (blockedEngine) Name() string { return "blocked" }

func (blockedEngine) Probe(kind nn.ModelKind, plan core.GraphPlan) error {
	return probePlan(kind, plan)
}

func (blockedEngine) LayerBytes(sh LayerShape, part *core.Partition, plan Plan) float64 {
	return blockedLayerBytes(sh, part, plan)
}

func (blockedEngine) RunLayer(ctx *exec.Ctx, gc *nn.GraphCtx, layer nn.Layer, sh LayerShape, x *tensor.Tensor, dsts []int32, part *core.Partition, plan Plan) (*tensor.Tensor, error) {
	// Shared dense transforms.
	for _, k := range DenseKernels(sh, gc.NumVertices(), len(dsts)) {
		ctx.Launch(k, nil)
	}
	// Fused gTask kernel: one launch, tasks as work items.
	costs := CostPartition(ctx.Dev.Spec, part, sh, plan)
	times := make([]float64, len(costs))
	var flops, bytes float64
	for i, c := range costs {
		times[i] = c.Seconds
		flops += c.FLOPs
		bytes += c.Bytes
	}
	ctx.Launch(device.Kernel{
		Name: "gtask.fused", Cat: device.CatNeural,
		FLOPs: flops, Bytes: bytes, UnitTimes: times,
	}, nil)
	if !ctx.Compute {
		return nil, nil
	}
	return computeLayer(gc, layer, x, dsts, part, plan)
}

// deviceEngine runs blocked numerics but accounts the composed program
// stage by stage: each micro-kernel (load-src, load-ids, accumulate,
// store-edge, ...) is launched as its own kernel named "gtask.<stage>",
// with per-task unit times, so the cost model's stage-level predictions
// land in device.KernelStats where they can be diffed against the fused
// engine's bytes-moved claims.
type deviceEngine struct{}

func (deviceEngine) Name() string { return "device" }

func (deviceEngine) Probe(kind nn.ModelKind, plan core.GraphPlan) error {
	return probePlan(kind, plan)
}

func (deviceEngine) LayerBytes(sh LayerShape, part *core.Partition, plan Plan) float64 {
	return composedLayerBytes(sh, part, plan)
}

func (deviceEngine) RunLayer(ctx *exec.Ctx, gc *nn.GraphCtx, layer nn.Layer, sh LayerShape, x *tensor.Tensor, dsts []int32, part *core.Partition, plan Plan) (*tensor.Tensor, error) {
	for _, k := range DenseKernels(sh, gc.NumVertices(), len(dsts)) {
		ctx.Launch(k, nil)
	}
	prog := Compose(sh, plan)
	n := part.NumTasks()
	stats := make([]TaskStatsOf, n)
	for ti := range stats {
		stats[ti] = StatsOf(part, ti)
	}
	for _, s := range prog.Stages {
		var flops, bytes float64
		times := make([]float64, n)
		for ti, st := range stats {
			var sf, sb float64
			if s.FLOPs != nil {
				sf = s.FLOPs(st)
			}
			if s.Elems != nil {
				sb = s.Elems(st) * fb
			}
			flops += sf
			bytes += sb
			times[ti] = perUnit(ctx.Dev.Spec, sf, sb, s.Kind == StageCompute && prog.TC(st))
		}
		cat := device.CatIndexing
		if s.Kind == StageCompute || s.Kind == StageReduce {
			cat = device.CatNeural
		}
		ctx.Launch(device.Kernel{
			Name: "gtask." + s.Name, Cat: cat,
			FLOPs: flops, Bytes: bytes, UnitTimes: times,
		}, nil)
	}
	if !ctx.Compute {
		return nil, nil
	}
	return computeLayer(gc, layer, x, dsts, part, plan)
}
