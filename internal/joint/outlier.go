// Package joint implements WiseGraph's joint optimization (paper §6):
// identifying outlier gTasks caused by graph irregularity, rescheduling
// them with differentiated resources and priorities, and searching the
// combined space of graph partition plans and operation partition plans
// for the execution plan with the least modeled time.
package joint

import (
	"wisegraph/internal/core"
	"wisegraph/internal/device"
	"wisegraph/internal/kernels"
	"wisegraph/internal/pattern"
)

// OutlierKind classifies a gTask (paper §6.1).
type OutlierKind int

const (
	// Regular tasks follow the power-law bulk: moderate size, near the
	// plan's batch targets.
	Regular OutlierKind = iota
	// Underfill tasks could not reach an Exact restriction's batch size;
	// batched execution pads them with redundant work.
	Underfill
	// Overfill tasks have far more edges than the median because an
	// unrestricted attribute exploded (high-degree hubs); they cause the
	// long-tail effect.
	Overfill
	// Frequent tasks share a restricted-attribute value that appears in
	// many tasks (a hub split across tasks); their common workload can be
	// precomputed once.
	Frequent

	numOutlierKinds
)

var outlierNames = [numOutlierKinds]string{"regular", "underfill", "overfill", "frequent"}

// String names the kind.
func (k OutlierKind) String() string { return outlierNames[k] }

// Classification assigns an OutlierKind to every task of a partition.
type Classification struct {
	Kind   []OutlierKind
	Counts [numOutlierKinds]int // tasks of each kind
	// MedianEdges is the regular-task size reference.
	MedianEdges int
}

// Outliers returns the number of non-regular tasks.
func (c Classification) Outliers() int {
	return c.Counts[Underfill] + c.Counts[Overfill] + c.Counts[Frequent]
}

// classification thresholds
const (
	underfillFrac  = 0.5 // uniq < typical-batch/2 ⇒ underfill
	overfillFactor = 4   // edges > 4× median ⇒ overfill
	frequentTasks  = 16  // restricted id value in ≥ 16 tasks ⇒ frequent (a real hub)
)

// Classify identifies outlier gTasks for a partition under its plan.
func Classify(part *core.Partition) Classification {
	n := part.NumTasks()
	c := Classification{Kind: make([]OutlierKind, n)}
	// Underfill is judged against the *typical* batch the plan achieves:
	// if most tasks reach only k < limit unique values, k is the real
	// batch width and only tasks far below it are outliers. Judging
	// against the raw limit would mark the bulk as outliers on sparse
	// graphs, inverting the power-law regular/outlier split.
	var batched []core.Restriction
	var batchedAttrs []core.Attr
	for _, r := range part.Plan.Restrictions {
		if r.Kind == core.Exact && r.Limit > 1 && part.Uniq[r.Attr] != nil {
			batched = append(batched, r)
			batchedAttrs = append(batchedAttrs, r.Attr)
		}
	}
	pp := pattern.Analyze(part, batchedAttrs)
	c.MedianEdges = pp.MedianEdges

	for ti := range n {
		// Overfill: far above the median size.
		if part.TaskLen(ti) > overfillFactor*c.MedianEdges {
			c.Kind[ti] = Overfill
			continue
		}
		// Underfill: far below the typical batch width.
		for _, r := range batched {
			if float64(part.TaskUniq(ti, r.Attr)) < underfillFrac*float64(min(pp.MedianUniq[r.Attr], r.Limit)) {
				c.Kind[ti] = Underfill
				break
			}
		}
	}

	// Frequent: for every Exact restriction of an identity attribute,
	// count how many tasks hold each vertex id; a regular task holding
	// one in ≥ frequentTasks tasks is a share of a hub split by the plan,
	// whose per-value workload can be shared. Low-cardinality attributes
	// (edge-type, degree) naturally recur everywhere and are not hubs.
	for _, r := range part.Plan.Restrictions {
		if r.Kind != core.Exact || (r.Attr != core.AttrSrcID && r.Attr != core.AttrDstID) {
			continue
		}
		ids := part.Graph.Src
		if r.Attr == core.AttrDstID {
			ids = part.Graph.Dst
		}
		// per vertex id: the tasks holding it, and the last one counted + 1
		tasksOf := make([]int32, part.Graph.NumVertices)
		lastTask := make([]int32, part.Graph.NumVertices)
		for ti := range n {
			for _, e := range part.TaskEdges(ti) {
				if v := ids[e]; lastTask[v] != int32(ti+1) {
					lastTask[v] = int32(ti + 1)
					tasksOf[v]++
				}
			}
		}
		for ti := range n {
			if c.Kind[ti] != Regular {
				continue
			}
			for _, e := range part.TaskEdges(ti) {
				if tasksOf[ids[e]] >= frequentTasks {
					c.Kind[ti] = Frequent
					break
				}
			}
		}
	}
	for _, k := range c.Kind {
		c.Counts[k]++
	}
	return c
}

// Schedule is a concrete execution order with per-item times for one fused
// kernel launch.
type Schedule struct {
	Times []float64
}

// Makespan returns the schedule's finish time on the given unit count.
func (s Schedule) Makespan(units int) float64 {
	return device.Makespan(s.Times, units)
}

// UniformSchedule runs every task with the same operation plan in natural
// order — the baseline execution of paper Figure 19 (left bars).
func UniformSchedule(spec device.Spec, part *core.Partition, sh kernels.LayerShape, plan kernels.Plan) Schedule {
	return Schedule{Times: kernels.TaskSeconds(spec, kernels.PartitionStats(part), sh, plan)}
}

// DifferentiatedSchedule applies §6.2's outlier handling:
//   - underfill tasks break into edge-wise execution and run last,
//   - overfill tasks split into median-sized chunks (more thread blocks)
//     and run first, removing the long tail,
//   - frequent tasks fetch precomputed common workloads: the shared work
//     of each frequent-value group is scheduled once, as a first work
//     item, and the tasks keep only their indexing traffic.
func DifferentiatedSchedule(spec device.Spec, part *core.Partition, sh kernels.LayerShape, plan kernels.Plan, cls Classification) Schedule {
	// A frequent task's group is its first edge's value under the plan's
	// first Exact restriction other than edge-id: tasks sharing the hub
	// value share the precomputed workload. (Without one, the first edge
	// id makes every task its own group.)
	groupAttr := core.AttrEdgeID
	for _, r := range part.Plan.Restrictions {
		if r.Kind == core.Exact && r.Attr != core.AttrEdgeID {
			groupAttr = r.Attr
			break
		}
	}
	reader := core.NewAttrReader(part.Graph)
	var first, middle, last []float64
	frequentShared := map[int32]bool{}
	for ti, c := range kernels.CostPartition(spec, part, sh, plan) {
		switch cls.Kind[ti] {
		case Underfill:
			// edge-wise execution removes the padding redundancy
			edgeWise := kernels.CostTask(spec, sh, kernels.StatsOf(part, ti), kernels.Plan{})
			last = append(last, min(edgeWise.Seconds, c.Seconds))
		case Overfill:
			chunks := max(c.Edges/max(cls.MedianEdges, 1), 1)
			for range chunks {
				first = append(first, c.Seconds/float64(chunks))
			}
		case Frequent:
			// Pay the shared neural workload once per frequent-value
			// group as a normal (parallel) work item scheduled first;
			// afterwards the group's tasks only fetch the precomputed
			// data (model: 30% of their cost).
			key := reader.Value(groupAttr, int(part.TaskEdges(ti)[0]))
			if !frequentShared[key] {
				frequentShared[key] = true
				first = append(first, 0.7*c.Seconds)
			}
			middle = append(middle, 0.3*c.Seconds)
		default:
			middle = append(middle, c.Seconds)
		}
	}
	times := make([]float64, 0, len(first)+len(middle)+len(last))
	times = append(times, first...)
	times = append(times, middle...)
	times = append(times, last...)
	return Schedule{Times: times}
}

// BestSchedule returns the better of the uniform and differentiated
// schedules (WiseGraph measures candidates and keeps the winner), along
// with whether the differentiated one was selected.
func BestSchedule(spec device.Spec, part *core.Partition, sh kernels.LayerShape, plan kernels.Plan, cls Classification) (Schedule, bool) {
	uni := UniformSchedule(spec, part, sh, plan)
	diff := DifferentiatedSchedule(spec, part, sh, plan, cls)
	if diff.Makespan(spec.NumUnits) < uni.Makespan(spec.NumUnits) {
		return diff, true
	}
	return uni, false
}
