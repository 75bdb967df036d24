// Package kernels is WiseGraph's gTask executor: it runs a GNN layer as
// one fused kernel whose work items are the gTasks of a graph partition
// plan (paper §5.3). The fused kernel's micro-kernel program is compiled
// from the layer's DFG (nn.LayerDFG) as the §5.2 transformations leave it
// under the operation plan (Compose, micro.go): each gTask-level DFG node
// becomes load, compute, reduce or store stages; batched data selects
// batched (tensor-core-eligible) micro-kernels, duplicated data the
// unique-extracted DFG, and tasks without batched data are priced edge
// by edge.
//
// The package provides the per-task cost model — the only one the
// operation partition is ranked by, read by the joint optimizer and the
// bench harness — and the executor, which computes a layer as the model's
// nn layer over the partition's edge order and charges the device what
// that cost model prices it at. The operation plan changes only the
// charge, never the arithmetic. An Engine (engine.go) is only a bytes
// model that LayerBytes reports.
package kernels

import (
	"fmt"

	"wisegraph/internal/core"
	"wisegraph/internal/device"
	"wisegraph/internal/nn"
)

// Plan is an operation partition plan for a given graph partition.
type Plan struct {
	// Dedup prices the DFG after unique-value extraction of the
	// source-side keys (src-id, edge-type; see DedupInfo): work per unique
	// (src[,type]) value instead of per edge. The search sweeps it, next to
	// the plan without it, where the graph plan's tasks duplicate one of
	// those keys, and keeps whichever program is cheaper; it implies
	// Batched.
	Dedup bool
	// Batched prices batched micro-kernels; false prices edge-by-edge
	// processing (the paper's Figure 10b vs 10c).
	Batched bool
}

// String renders the plan.
func (p Plan) String() string {
	return fmt.Sprintf("opplan{dedup=%v batched=%v}", p.Dedup, p.Batched)
}

// TaskCost is the modeled cost of one gTask under a plan.
type TaskCost struct {
	Edges   int
	FLOPs   float64
	Bytes   float64
	Seconds float64 // on one execution unit
}

// LayerShape carries the dimensions task costing needs.
type LayerShape struct {
	Kind  nn.ModelKind
	F, Fp int
	Types int
}

const fb = 4.0

// perUnit returns time of (flops, bytes) on a single execution unit, on
// the tensor-core path when tc is set and the batch is large enough.
func perUnit(spec device.Spec, flops, bytes float64, tc bool) float64 {
	units := float64(spec.NumUnits)
	peak := spec.SIMTFLOPS
	if tc {
		peak = spec.TensorCoreFLOPS
	}
	t := flops / (peak / units)
	if tm := bytes / (spec.MemBandwidth / units); tm > t {
		t = tm
	}
	return t
}

// TaskStatsOf extracts the per-task statistics costing needs.
type TaskStatsOf struct {
	Edges    int
	UniqSrc  int
	UniqDst  int
	UniqType int
	MaxDeg   int // ⌈Edges ÷ UniqDst⌉, standing in for the largest per-dst run
}

// StatsOf reads task ti's statistics from the partition. Attributes not
// collected default to worst case (no duplication).
func StatsOf(p *core.Partition, ti int) TaskStatsOf {
	edges := p.TaskLen(ti)
	get := func(a core.Attr) int {
		if p.Uniq[a] == nil {
			return edges
		}
		return int(p.TaskUniq(ti, a))
	}
	return NewTaskStats(edges, get(core.AttrSrcID), get(core.AttrDstID), get(core.AttrEdgeType))
}

// NewTaskStats returns the statistics of a task with the given edge and
// unique-value counts. MaxDeg is not the largest per-dst run but its lower
// bound, the ceiling of edges ÷ unique destinations: no pass over the
// task's edges measures the runs, so LSTM costing prices the padding of
// evenly spread destinations.
func NewTaskStats(edges, uniqSrc, uniqDst, uniqType int) TaskStatsOf {
	s := TaskStatsOf{Edges: edges, UniqSrc: uniqSrc, UniqDst: uniqDst, UniqType: uniqType}
	if uniqDst > 0 {
		s.MaxDeg = (edges + uniqDst - 1) / uniqDst
	}
	return s
}

// CostTask prices one gTask by composing its micro-kernel program
// (paper §5.3) and summing the stages' work. The data patterns select
// the program: batched data picks batch-loading micro-kernels, duplicated
// data the unique-loading + shared-compute ones, and their absence the
// edge-by-edge fallback.
func CostTask(spec device.Spec, sh LayerShape, st TaskStatsOf, plan Plan) TaskCost {
	return Compose(sh, plan).cost(spec, st)
}

// cost prices one task under the composed program.
func (p Program) cost(spec device.Spec, st TaskStatsOf) TaskCost {
	flops, bytes := p.Totals(st)
	return TaskCost{
		Edges:   st.Edges,
		FLOPs:   flops,
		Bytes:   bytes,
		Seconds: perUnit(spec, flops, bytes, p.TC(st)),
	}
}

// CostPartition prices every task of a partition with the program composed
// once for the layer.
func CostPartition(spec device.Spec, p *core.Partition, sh LayerShape, plan Plan) []TaskCost {
	prog := Compose(sh, plan)
	out := make([]TaskCost, p.NumTasks())
	for ti := range out {
		out[ti] = prog.cost(spec, StatsOf(p, ti))
	}
	return out
}

// DenseKernels returns the per-layer dense kernels WiseGraph launches
// outside the fused gTask kernel, for a layer over v input rows that
// produces d destination rows (d == v on a full graph). Source-side
// transforms, which every edge source needs, are charged v rows (GCN's XW,
// GAT's Z and left projection); destination-side ones are charged d rows
// (the self and neighbour weights of SAGE, RGCN and SAGE-LSTM, GAT's right
// projection). These run on tensor cores at full efficiency for every
// strategy.
func DenseKernels(sh LayerShape, v, d int) []device.Kernel {
	f := float64(sh.F)
	fp := float64(sh.Fp)
	vf, df := float64(v), float64(d)
	mm := func(name string, m, k, n float64) device.Kernel {
		return device.Kernel{Name: name, Cat: device.CatNeural, TensorCore: true,
			FLOPs: 2 * m * k * n, Bytes: (m*k + k*n + m*n) * fb}
	}
	switch sh.Kind {
	case nn.GCN:
		return []device.Kernel{mm("gcn.xw", vf, f, fp)}
	case nn.SAGE:
		return []device.Kernel{mm("sage.self", df, f, fp), mm("sage.neigh", df, f, fp)}
	case nn.RGCN:
		return []device.Kernel{mm("rgcn.self", df, f, fp)}
	case nn.GAT:
		// One pass over Z: a left score per input row, a right score per
		// destination row, two attention vectors.
		proj := device.Kernel{Name: "gat.proj", Cat: device.CatNeural, TensorCore: true,
			FLOPs: 2 * (vf + df) * fp, Bytes: (vf*fp + 2*fp + vf + df) * fb}
		return []device.Kernel{mm("gat.z", vf, f, fp), proj}
	case nn.SAGELSTM:
		return []device.Kernel{mm("lstm.self", df, f, fp), mm("lstm.neigh", df, fp, fp)}
	}
	return nil
}

// ValidPlanFor reports whether a graph partition plan can legally execute
// the model: SAGE-LSTM's recurrent aggregation needs each destination's
// edges contiguous in one task and in stable order, i.e. a plan whose
// restrictions include dst-id and do not reorder within a destination.
func ValidPlanFor(kind nn.ModelKind, plan core.GraphPlan) bool {
	if kind != nn.SAGELSTM {
		return true
	}
	if _, ok := plan.Restricted(core.AttrDstID); !ok {
		return false
	}
	// sorting by src-id inside a dst would permute the LSTM sequence
	if _, ok := plan.Restricted(core.AttrSrcID); ok {
		return false
	}
	// a per-dst edge cap splits a sequence across tasks
	if _, ok := plan.Restricted(core.AttrEdgeID); ok {
		return false
	}
	return true
}
