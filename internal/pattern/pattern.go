// Package pattern extracts gTask-level data patterns (paper §5.1) from a
// graph partition: duplicated data (uniq(attr) < #edges), which decides
// whether the joint search also prices the unique-extracted program, and
// batched data (the unique-value counts that size micro-kernel batches),
// which RegularStats hands to the kernels cost model as the archetypal
// task.
package pattern

import (
	"sort"

	"wisegraph/internal/core"
	"wisegraph/internal/kernels"
)

// PlanPattern aggregates patterns across a whole partition: the medians
// describe the *regular* gTask the operation partition is tuned for
// (outliers are handled separately by the joint optimizer).
type PlanPattern struct {
	NumTasks    int
	TotalEdges  int
	MedianEdges int
	MaxEdges    int
	MinEdges    int
	// MedianUniq per attribute, over tasks.
	MedianUniq map[core.Attr]int
	// DupFraction is the fraction of tasks where the attribute is
	// duplicated; ≥ 0.5 marks the plan-level duplicated-data pattern.
	DupFraction map[core.Attr]float64
}

// Analyze computes the plan-level pattern over the given attributes.
func Analyze(p *core.Partition, attrs []core.Attr) PlanPattern {
	n := p.NumTasks()
	pp := PlanPattern{
		NumTasks:    n,
		MedianUniq:  make(map[core.Attr]int, len(attrs)),
		DupFraction: make(map[core.Attr]float64, len(attrs)),
	}
	if n == 0 {
		return pp
	}
	lens := make([]int, n)
	for ti := range lens {
		lens[ti] = p.TaskLen(ti)
		pp.TotalEdges += lens[ti]
	}
	pp.MedianEdges = median(lens)
	pp.MinEdges, pp.MaxEdges = lens[0], lens[0]
	for _, l := range lens {
		if l < pp.MinEdges {
			pp.MinEdges = l
		}
		if l > pp.MaxEdges {
			pp.MaxEdges = l
		}
	}
	us := make([]int, n)
	for _, a := range attrs {
		for ti := range us {
			us[ti] = int(p.TaskUniq(ti, a))
		}
		pp.MedianUniq[a] = median(us)
		pp.DupFraction[a] = dupFraction(p, a)
	}
	return pp
}

// dupFraction is the fraction of p's tasks in which attribute a has fewer
// unique values than the task has edges.
func dupFraction(p *core.Partition, a core.Attr) float64 {
	n := p.NumTasks()
	if n == 0 {
		return 0
	}
	dup := 0
	for ti := 0; ti < n; ti++ {
		if int(p.TaskUniq(ti, a)) < p.TaskLen(ti) {
			dup++
		}
	}
	return float64(dup) / float64(n)
}

// Duplicated reports the plan-level duplicated-data pattern for a tracked
// attribute: true when a majority of p's tasks have duplicates, Analyze's
// DupFraction[a] ≥ 0.5 without the medians Analyze sorts for. The joint
// search reads it to decide whether it prices a plan's dedup program too.
func Duplicated(p *core.Partition, a core.Attr) bool { return dupFraction(p, a) >= 0.5 }

// RegularStats returns the statistics of the archetypal regular gTask —
// median edges and median unique counts — the task the bench harness
// shows a plan's program at.
func (pp PlanPattern) RegularStats() kernels.TaskStatsOf {
	return kernels.NewTaskStats(pp.MedianEdges, pp.MedianUniq[core.AttrSrcID],
		pp.MedianUniq[core.AttrDstID], pp.MedianUniq[core.AttrEdgeType])
}

// median returns the median of xs (xs is not modified).
func median(xs []int) int {
	if len(xs) == 0 {
		return 0
	}
	cp := append([]int(nil), xs...)
	sort.Ints(cp)
	return cp[len(cp)/2]
}
