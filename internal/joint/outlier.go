// Package joint implements WiseGraph's joint optimization (paper §6):
// identifying outlier gTasks caused by graph irregularity, rescheduling
// them with differentiated resources and priorities, and searching the
// combined space of graph partition plans and operation partition plans
// for the execution plan with the least modeled time.
package joint

import (
	"sort"
	"strconv"

	"wisegraph/internal/core"
	"wisegraph/internal/device"
	"wisegraph/internal/kernels"
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
)

var outlierNames = [...]string{"regular", "underfill", "overfill", "frequent"}

// String names the kind.
func (k OutlierKind) String() string { return outlierNames[k] }

// Classification assigns an OutlierKind to every task of a partition.
type Classification struct {
	Kind   []OutlierKind
	Counts map[OutlierKind]int
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
	c := Classification{
		Kind:   make([]OutlierKind, n),
		Counts: map[OutlierKind]int{},
	}
	if n == 0 {
		return c
	}
	// median edges
	lens := make([]int, n)
	for ti := 0; ti < n; ti++ {
		lens[ti] = part.TaskLen(ti)
	}
	c.MedianEdges = medianInt(lens)

	// Frequent values: for every Exact restriction of an identity
	// attribute, count how many tasks contain each value. A vertex id
	// recurring across tasks marks a hub split by the plan, whose
	// per-value workload can be shared; low-cardinality attributes
	// (edge-type, degree) naturally recur everywhere and are not hubs.
	var restricted []core.Attr
	for _, r := range part.Plan.Restrictions {
		if r.Kind == core.Exact && (r.Attr == core.AttrSrcID || r.Attr == core.AttrDstID) {
			restricted = append(restricted, r.Attr)
		}
	}
	reader := core.NewAttrReader(part.Graph)
	taskValues := make([]map[core.Attr][]int32, n)
	valueTasks := map[core.Attr]map[int32]int{}
	for _, attr := range restricted {
		valueTasks[attr] = map[int32]int{}
	}
	for ti := 0; ti < n && len(restricted) > 0; ti++ {
		taskValues[ti] = map[core.Attr][]int32{}
		for _, attr := range restricted {
			seen := map[int32]struct{}{}
			for _, e := range part.TaskEdges(ti) {
				v := reader.Value(attr, int(e))
				if _, ok := seen[v]; !ok {
					seen[v] = struct{}{}
					taskValues[ti][attr] = append(taskValues[ti][attr], v)
					valueTasks[attr][v]++
				}
			}
		}
	}

	// Underfill is judged against the *typical* batch the plan achieves:
	// if most tasks reach only k < limit unique values, k is the real
	// batch width and only tasks far below it are outliers. Judging
	// against the raw limit would mark the bulk as outliers on sparse
	// graphs, inverting the power-law regular/outlier split.
	medianUniq := map[core.Attr]int{}
	for _, r := range part.Plan.Restrictions {
		if r.Kind != core.Exact || r.Limit <= 1 || part.Uniq[r.Attr] == nil {
			continue
		}
		us := make([]int, n)
		for ti := 0; ti < n; ti++ {
			us[ti] = int(part.TaskUniq(ti, r.Attr))
		}
		medianUniq[r.Attr] = min(medianInt(us), r.Limit)
	}

	for ti := 0; ti < n; ti++ {
		kind := Regular
		// Overfill: far above the median size.
		if lens[ti] > overfillFactor*c.MedianEdges {
			kind = Overfill
		}
		// Underfill: far below the typical batch width.
		if kind == Regular {
			for attr, m := range medianUniq {
				if float64(part.TaskUniq(ti, attr)) < underfillFrac*float64(m) {
					kind = Underfill
					break
				}
			}
		}
		// Frequent: a restricted value shared by many tasks.
		if kind == Regular {
			for _, attr := range restricted {
				for _, v := range taskValues[ti][attr] {
					if valueTasks[attr][v] >= frequentTasks {
						kind = Frequent
						break
					}
				}
				if kind != Regular {
					break
				}
			}
		}
		c.Kind[ti] = kind
		c.Counts[kind]++
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
	costs := kernels.CostPartition(spec, part, sh, plan)
	times := make([]float64, len(costs))
	for i, c := range costs {
		times[i] = c.Seconds
	}
	return Schedule{Times: times}
}

// DifferentiatedSchedule applies §6.2's outlier handling:
//   - underfill tasks break into edge-wise execution and run last,
//   - overfill tasks split into median-sized chunks (more thread blocks)
//     and run first, removing the long tail,
//   - frequent tasks fetch precomputed common workloads: the shared work
//     of each frequent-value group is scheduled once, as a first work
//     item, and the tasks keep only their indexing traffic.
func DifferentiatedSchedule(spec device.Spec, part *core.Partition, sh kernels.LayerShape, plan kernels.Plan, cls Classification) Schedule {
	var first, middle, last []float64
	frequentShared := map[string]bool{}
	for ti := 0; ti < part.NumTasks(); ti++ {
		st := kernels.StatsOf(part, ti)
		c := kernels.CostTask(spec, sh, st, plan)
		switch cls.Kind[ti] {
		case Underfill:
			// edge-wise execution removes the padding redundancy
			last = append(last, min(kernels.CostTask(spec, sh, st, kernels.Plan{}).Seconds, c.Seconds))
		case Overfill:
			chunks := max(st.Edges/max(cls.MedianEdges, 1), 1)
			for range chunks {
				first = append(first, c.Seconds/float64(chunks))
			}
		case Frequent:
			// Pay the shared neural workload once per frequent-value
			// group as a normal (parallel) work item scheduled first;
			// afterwards the group's tasks only fetch the precomputed
			// data (model: 30% of their cost).
			key := frequentKey(part, ti)
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

// frequentKey identifies a frequent-task group by its first restricted
// value (tasks sharing the hub value share the precomputed workload).
func frequentKey(part *core.Partition, ti int) string {
	reader := core.NewAttrReader(part.Graph)
	for _, r := range part.Plan.Restrictions {
		if r.Kind == core.Exact && r.Attr != core.AttrEdgeID {
			e := part.TaskEdges(ti)[0]
			return r.Attr.String() + ":" + strconv.Itoa(int(reader.Value(r.Attr, int(e))))
		}
	}
	return "task:" + strconv.Itoa(ti)
}

func medianInt(xs []int) int {
	cp := append([]int(nil), xs...)
	sort.Ints(cp)
	return cp[len(cp)/2]
}
