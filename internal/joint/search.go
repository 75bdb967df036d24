package joint

import (
	"fmt"
	"sync"

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
	Partition *core.Partition
	// OpPlan executes regular gTasks; outliers are handled by the
	// differentiated schedule.
	OpPlan         kernels.Plan
	Classification Classification
	Differentiated bool
	Seconds        float64
	Trace          []Step

	PlansTried  int
	PlansPruned int
	CacheHits   int
}

// statAttrs are collected for every partition the search builds.
var statAttrs = []core.Attr{core.AttrSrcID, core.AttrDstID, core.AttrEdgeType, core.AttrDstDegree}

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
// internal/parallel pool (each evaluation is pure; partitions are shared
// through a singleflight cache), then the trace, incumbent and counters
// are replayed sequentially in enumeration order — the Result is
// identical for any worker count.
func Search(g *graph.Graph, kind nn.ModelKind, f, fp, numTypes int, opts Options) *Result {
	sh := kernels.LayerShape{Kind: kind, F: f, Fp: fp, Types: numTypes}
	res := &Result{Kind: kind}

	// Singleflight partition cache: the first goroutine to ask for a plan
	// builds its partition, concurrent askers block on the entry's Once.
	type partEntry struct {
		once sync.Once
		part *core.Partition
	}
	var cacheMu sync.Mutex
	partCache := map[string]*partEntry{}
	partitionOf := func(p core.GraphPlan) *core.Partition {
		key := p.String()
		cacheMu.Lock()
		ent, ok := partCache[key]
		if !ok {
			ent = &partEntry{}
			partCache[key] = ent
		}
		cacheMu.Unlock()
		ent.once.Do(func() { ent.part = core.PartitionGraph(g, p, statAttrs) })
		return ent.part
	}
	// touch replays the sequential implementation's cache-lookup sequence
	// so CacheHits stays meaningful (and worker-count independent): every
	// plan re-requested after its first build counts once.
	seen := map[string]bool{}
	touch := func(p core.GraphPlan) {
		key := p.String()
		if seen[key] {
			res.CacheHits++
		} else {
			seen[key] = true
		}
	}

	e := float64(g.NumEdges())
	record := func(stage, desc string, secs float64) {
		best := res.Seconds
		if best == 0 || secs < best {
			best = secs
		}
		res.Trace = append(res.Trace, Step{Stage: stage, Desc: desc, Seconds: secs, Throughput: e / best})
	}
	consider := func(stage string, gp core.GraphPlan, part *core.Partition, op kernels.Plan, cls *Classification, differentiated bool, secs float64) {
		record(stage, fmt.Sprintf("%s %s diff=%v", gp.Name, op, differentiated), secs)
		if res.Seconds == 0 || secs < res.Seconds {
			res.Seconds = secs
			res.GraphPlan = gp
			res.Partition = part
			res.OpPlan = op
			res.Differentiated = differentiated
			if cls != nil {
				res.Classification = *cls
			}
		}
		res.PlansTried++
	}
	uniformSecs := func(part *core.Partition, op kernels.Plan) float64 {
		return LayerTime(opts.Spec, sh, g.NumVertices, UniformSchedule(opts.Spec, part, sh, op))
	}

	// ---- Enumeration and pruning (sequential, structural estimates only) ----
	// Initial point: edge-centric with naive (edge-wise) kernels.
	init := core.EdgeCentric()
	if !kernels.ValidPlanFor(kind, init) {
		init = core.VertexCentric()
	}
	var pruned []core.GraphPlan
	var candidates []core.GraphPlan
	for _, gp := range core.EnumeratePlans(kind.IndexAttrs()) {
		if !kernels.ValidPlanFor(kind, gp) {
			continue
		}
		if pruneEstimate(g, gp) {
			pruned = append(pruned, gp)
			continue
		}
		candidates = append(candidates, gp)
	}

	// ---- Concurrent evaluation ----
	// Work item 0 is the initial plan (stage 1 only); the rest are the
	// candidates, which also get the stage-2 operation-plan sweep: for
	// every surviving graph plan, the DFG transformation engine decides —
	// from that plan's own gTask-level data patterns — whether
	// duplication-aware rewrites pay off, then the kernel plans are swept.
	// Tuning per graph plan is what makes the search *joint*: the best
	// operation plan differs across graph plans (paper §1).
	items := append([]core.GraphPlan{init}, candidates...)
	evals := make([]*candEval, len(items))
	parallel.For(len(items), 1, func(i int) {
		gp := items[i]
		part := partitionOf(gp)
		ev := &candEval{gp: gp, part: part, naiveSecs: uniformSecs(part, kernels.Plan{})}
		if i > 0 {
			pp := pattern.Analyze(part, statAttrs)
			dup := map[string]bool{
				"src-id":    pp.Duplicated(core.AttrSrcID),
				"edge-type": pp.Duplicated(core.AttrEdgeType),
				"dst-id":    pp.Duplicated(core.AttrDstID),
			}
			// Each worker builds its own layer DFG: construction is cheap
			// and deterministic, and it keeps candidates free of shared
			// mutable state.
			layerDFG := nn.LayerDFG(kind, g.NumVertices, numTypes, f, fp)
			cands := opt.Transform(layerDFG, opt.Info{AttrOf: nn.AttrOfKeys(), Dup: dup})
			bestDFG, _ := opt.SelectBest(cands, pp.RegularStats())
			opPlans := []kernels.Plan{{Batched: true}}
			if bestDFG.Extracted {
				opPlans = append(opPlans, kernels.Plan{Batched: true, Dedup: true})
			}
			for _, op := range opPlans {
				ev.ops = append(ev.ops, opEval{op: op, secs: uniformSecs(part, op)})
			}
		}
		evals[i] = ev
	})

	// ---- Sequential replay: stage 1 (graph partition, paper §4) ----
	touch(init)
	consider("graph-partition", evals[0].gp, evals[0].part, kernels.Plan{}, nil, false, evals[0].naiveSecs)
	for _, gp := range pruned {
		res.PlansPruned++
		tp := 0.0
		if res.Seconds > 0 {
			tp = e / res.Seconds
		}
		res.Trace = append(res.Trace, Step{Stage: "pruned", Desc: gp.String(), Throughput: tp})
	}
	for _, ev := range evals[1:] {
		touch(ev.gp)
		consider("graph-partition", ev.gp, ev.part, kernels.Plan{}, nil, false, ev.naiveSecs)
	}

	// ---- Stage 2 replay (operation partition, paper §5) ----
	for _, ev := range evals[1:] {
		touch(ev.gp)
		for _, oe := range ev.ops {
			consider("operation-partition", ev.gp, ev.part, oe.op, nil, false, oe.secs)
		}
	}

	// ---- Stage 3: joint optimization (paper §6) ----
	finalGP := res.GraphPlan
	touch(finalGP)
	finalPart := partitionOf(finalGP)
	cls := Classify(finalPart)
	secs := LayerTime(opts.Spec, sh, g.NumVertices, DifferentiatedSchedule(opts.Spec, finalPart, sh, res.OpPlan, cls))
	consider("joint", finalGP, finalPart, res.OpPlan, &cls, true, secs)
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
