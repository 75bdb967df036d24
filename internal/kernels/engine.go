package kernels

import (
	"fmt"
	"strings"

	"wisegraph/internal/core"
	"wisegraph/internal/nn"
)

// Engine is one bytes model of a GNN layer's aggregation path: what
// global-memory traffic each gTask of a graph partition is modeled to move
// under one dataflow. It changes neither the arithmetic nor the device
// charge — the gTask executor charges every layer as the search prices it
// (compute.go) — and is read only by LayerBytes, the table `wgbench -exp
// ext-engines` and the benchmark's bytes rows print. Engines come from
// Select:
//
//   - "blocked": an edge-by-edge dataflow's traffic — a destination-row
//     read-modify-write per edge (blockedTaskBytes), which the CPU no
//     longer runs.
//   - "fused": a register-resident accumulator per same-destination run —
//     one row load + store per run (fusedTaskBytes). That is what executes:
//     the layers aggregate through nn.EdgeSpMM, which holds each
//     destination row in registers across its run (tensor.AccumRun).
//   - "device": the composed program's own prediction, the traffic the
//     executor charges (composedTaskBytes).
type Engine struct {
	name string
	// taskBytes models the global-memory traffic of task ti under this
	// engine's dataflow.
	taskBytes func(t pricedTasks, ti int) float64
}

var engines = []Engine{
	{name: "blocked", taskBytes: blockedTaskBytes},
	{name: "fused", taskBytes: fusedTaskBytes},
	{name: "device", taskBytes: composedTaskBytes},
}

// Name is the identifier Select takes.
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

// composedTaskBytes is the composed program's modeled traffic for one task
// — the cost model's prediction for the paper's target fused kernel, and
// what the executor charges (CostPartition).
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
