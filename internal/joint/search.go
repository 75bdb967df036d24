package joint

import (
	"fmt"
	"slices"

	"wisegraph/internal/core"
	"wisegraph/internal/device"
	"wisegraph/internal/graph"
	"wisegraph/internal/kernels"
	"wisegraph/internal/nn"
	"wisegraph/internal/opt"
	"wisegraph/internal/parallel"
	"wisegraph/internal/pattern"
)

// Options configures the search: Spec is the device whose cost model
// ranks the candidates.
type Options struct {
	Spec device.Spec
}

// Step is one tuning step of the search trace (paper Figure 16's x-axis).
type Step struct {
	Stage      string // "graph-partition", "pruned", "operation-partition", "joint"
	Desc       string
	Seconds    float64 // modeled per-layer time of this candidate (0 for pruned plans)
	Throughput float64 // edges/second of the best plan so far
}

// Result is the selected execution plan with search diagnostics.
type Result struct {
	Kind      nn.ModelKind
	GraphPlan core.GraphPlan
	// Partition is GraphPlan's partition of the searched graph. It holds
	// the unique-value rows of src-id, dst-id and edge-type (what the cost
	// model reads) and of any attribute GraphPlan restricts, no others:
	// TaskUniq panics on, and pattern.Analyze cannot read, an
	// unrestricted dst-degree. A caller that needs other rows
	// repartitions GraphPlan with its own attributes.
	Partition *core.Partition
	// OpPlan executes regular gTasks; outliers are handled by the
	// differentiated schedule.
	OpPlan kernels.Plan
	// Classification is the outlier classification of Partition's
	// tasks, whether or not Differentiated.
	Classification Classification
	Differentiated bool
	Seconds        float64
	Trace          []Step

	PlansTried  int
	PlansPruned int
	// CacheHits counts the partition reads a cache would serve: the
	// search builds each graph plan's partition once and reads it again
	// for stage 2 (every candidate), for stage 3 (the pick) and, when the
	// initial plan is also a candidate, for its second stage-1 step.
	CacheHits int
}

// statAttrs are collected for every partition the search builds: the
// attributes the cost model (kernels.StatsOf) and the dedup decision
// (kernels.DedupInfo) read. A restricted attribute is tracked whatever the
// list.
var statAttrs = []core.Attr{core.AttrSrcID, core.AttrDstID, core.AttrEdgeType}

// LayerTime models one layer's execution: the shared dense kernels plus
// the fused gTask kernel under the given schedule. The dense kernels are
// charged as on a full graph (all v rows are destinations); they are the
// same for every plan a search compares, so no ranking depends on them.
func LayerTime(spec device.Spec, sh kernels.LayerShape, v int, sched Schedule) float64 {
	t := 0.0
	for _, k := range kernels.DenseKernels(sh, v, v) {
		t += spec.LaunchOverhead + spec.Time(k)
	}
	t += spec.LaunchOverhead + sched.Makespan(spec.NumUnits)
	return t
}

// opEval is one (operation plan, modeled time) pair from a candidate's
// stage-2 sweep.
type opEval struct {
	op   kernels.Plan
	secs float64
}

// candEval is everything the concurrent phase computes for one graph
// plan. All of it is a pure function of (g, kind, shape, plan), so
// workers fill these in any order and the sequential replay below
// consumes them in enumeration order.
type candEval struct {
	gp        core.GraphPlan
	part      *core.Partition
	naiveSecs float64  // stage 1: original DFG, edge-wise kernels
	ops       []opEval // stage 2: tuned operation plans
}

// Search explores the joint space for one representative layer of the
// model (F → Fp) over graph g and returns the best execution plan found,
// with the full tuning trace.
//
// Candidate plans are partitioned and cost-modeled concurrently on the
// internal/parallel pool (each evaluation is pure and builds its plan's
// one partition), then the trace, incumbent and counters are replayed
// sequentially in enumeration order — the Result is identical for any
// worker count.
func Search(g *graph.Graph, kind nn.ModelKind, f, fp, numTypes int, opts Options) *Result {
	sh := kernels.LayerShape{Kind: kind, F: f, Fp: fp, Types: numTypes}
	res := &Result{Kind: kind}

	e := float64(g.NumEdges())
	consider := func(stage string, gp core.GraphPlan, part *core.Partition, op kernels.Plan, differentiated bool, secs float64) {
		if res.Seconds == 0 || secs < res.Seconds {
			res.Seconds = secs
			res.GraphPlan = gp
			res.Partition = part
			res.OpPlan = op
			res.Differentiated = differentiated
		}
		res.Trace = append(res.Trace, Step{Stage: stage, Desc: fmt.Sprintf("%s %s diff=%v", gp.Name, op, differentiated),
			Seconds: secs, Throughput: e / res.Seconds})
		res.PlansTried++
	}

	// ---- Enumeration and pruning (sequential, structural estimates only) ----
	// Initial point: edge-centric with naive (edge-wise) kernels.
	init := core.EdgeCentric()
	if !kernels.ValidPlanFor(kind, init) {
		init = core.VertexCentric()
	}
	var pruned []core.GraphPlan
	var candidates []core.GraphPlan
	initAt := -1
	for _, gp := range core.EnumeratePlans(kind.IndexAttrs()) {
		if !kernels.ValidPlanFor(kind, gp) {
			continue
		}
		if pruneEstimate(g, gp) {
			pruned = append(pruned, gp)
			continue
		}
		if gp.String() == init.String() {
			initAt = len(candidates)
		}
		candidates = append(candidates, gp)
	}
	// The initial plan is evaluated as the candidate it equals; only a
	// pruned one is an extra work item, after the candidates.
	items := candidates
	if initAt < 0 {
		initAt = len(candidates)
		items = append(slices.Clip(candidates), init)
	}

	// ---- Concurrent evaluation ----
	// Every item is partitioned once, through one table whose sorted
	// orders the plans with the same sort key share, and priced with
	// edge-wise kernels (stage 1). The candidates also get the stage-2
	// operation-plan sweep: every surviving graph plan is priced with
	// batched kernels and, where its own gTask-level data pattern
	// duplicates a key that unique extraction rewrites in the layer's DFG,
	// with the dedup program too. Both are the program kernels.Compose
	// compiles, so the one cost model ranks them, from task statistics
	// read once per partition. Tuning per graph plan is what makes the
	// search *joint*: the best operation plan differs across graph plans
	// (paper §1).
	tab := core.NewTable(g)
	evals := make([]candEval, len(items))
	parallel.For(len(items), 1, func(i int) {
		gp := items[i]
		part := tab.Partition(gp, statAttrs)
		stats := kernels.PartitionStats(part)
		uniformSecs := func(op kernels.Plan) float64 {
			return LayerTime(opts.Spec, sh, g.NumVertices, Schedule{Times: kernels.TaskSeconds(opts.Spec, stats, sh, op)})
		}
		ev := candEval{gp: gp, part: part, naiveSecs: uniformSecs(kernels.Plan{})}
		if i < len(candidates) {
			opPlans := []kernels.Plan{{Batched: true}}
			// Each worker builds its own layer DFG: construction is cheap
			// and deterministic, and it keeps candidates free of shared
			// mutable state.
			info := kernels.DedupInfo(func(a core.Attr) bool { return pattern.Duplicated(part, a) })
			if opt.ExtractUnique(nn.LayerDFG(kind, g.NumVertices, numTypes, f, fp), info) != nil {
				opPlans = append(opPlans, kernels.Plan{Batched: true, Dedup: true})
			}
			for _, op := range opPlans {
				ev.ops = append(ev.ops, opEval{op: op, secs: uniformSecs(op)})
			}
		}
		evals[i] = ev
	})
	// The rereads a partition cache would serve (see Result.CacheHits).
	res.CacheHits = len(candidates) + 1
	if initAt < len(candidates) {
		res.CacheHits++
	}

	// ---- Sequential replay: stage 1 (graph partition, paper §4) ----
	first := evals[initAt]
	consider("graph-partition", first.gp, first.part, kernels.Plan{}, false, first.naiveSecs)
	for _, gp := range pruned {
		res.PlansPruned++
		tp := 0.0
		if res.Seconds > 0 {
			tp = e / res.Seconds
		}
		res.Trace = append(res.Trace, Step{Stage: "pruned", Desc: gp.String(), Throughput: tp})
	}
	candEvals := evals[:len(candidates)]
	for _, ev := range candEvals {
		consider("graph-partition", ev.gp, ev.part, kernels.Plan{}, false, ev.naiveSecs)
	}

	// ---- Stage 2 replay (operation partition, paper §5) ----
	for _, ev := range candEvals {
		for _, oe := range ev.ops {
			consider("operation-partition", ev.gp, ev.part, oe.op, false, oe.secs)
		}
	}

	// ---- Stage 3: joint optimization (paper §6) ----
	res.Classification = Classify(res.Partition)
	secs := LayerTime(opts.Spec, sh, g.NumVertices, DifferentiatedSchedule(opts.Spec, res.Partition, sh, res.OpPlan, res.Classification))
	consider("joint", res.GraphPlan, res.Partition, res.OpPlan, true, secs)
	return res
}

// pruneEstimate applies the cost model's cheap structural filter before
// partitioning: plans with predicted parallelism too low to fill the
// device, or with per-task batches too small for its batch width, are
// ruled out without testing (paper §6.3 "inefficient execution plans will
// be ruled out without testing").
func pruneEstimate(g *graph.Graph, gp core.GraphPlan) bool {
	estTasks := estimateTasks(g, gp)
	// a handful of giant tasks cannot fill the device at all; the
	// per-unit cost model already penalizes milder underfill, so only the
	// extreme cases are pruned without testing
	return estTasks < 4
}

// estimateTasks predicts the task count of a plan from aggregate graph
// statistics only (no partitioning).
func estimateTasks(g *graph.Graph, gp core.GraphPlan) int {
	e := g.NumEdges()
	v := g.NumVertices
	est := 1
	if k, ok := gp.Restricted(core.AttrEdgeID); ok {
		est = max(est, e/max(k, 1))
	}
	if k, ok := gp.Restricted(core.AttrDstID); ok {
		est = max(est, v/max(k, 1))
	}
	if k, ok := gp.Restricted(core.AttrSrcID); ok {
		est = max(est, v/max(k, 1))
	}
	if _, ok := gp.Restricted(core.AttrEdgeType); ok {
		est = max(est, g.NumTypes)
	}
	if _, ok := gp.Restricted(core.AttrDstDegree); ok {
		est = max(est, 8) // degree classes
	}
	return est
}
