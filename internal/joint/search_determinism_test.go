package joint

import (
	"reflect"
	"runtime"
	"testing"

	"wisegraph/internal/device"
	"wisegraph/internal/nn"
)

// TestSearchDeterministicAcrossWorkerCounts runs the same search under
// different pool widths and requires bit-for-bit identical Results:
// candidate evaluation is concurrent, but the replay that builds the
// trace, incumbent and counters is sequential in enumeration order.
func TestSearchDeterministicAcrossWorkerCounts(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	g := skewedGraph(9)
	for _, kind := range []nn.ModelKind{nn.RGCN, nn.GCN, nn.SAGELSTM} {
		runtime.GOMAXPROCS(1)
		want := Search(g, kind, 32, 32, 4, Options{Spec: device.A100()})
		for _, w := range []int{2, 4, 8} {
			runtime.GOMAXPROCS(w)
			got := Search(g, kind, 32, 32, 4, Options{Spec: device.A100()})
			if got.GraphPlan.String() != want.GraphPlan.String() {
				t.Fatalf("%v workers=%d: plan %v, want %v", kind, w, got.GraphPlan, want.GraphPlan)
			}
			if got.OpPlan != want.OpPlan || got.Differentiated != want.Differentiated {
				t.Fatalf("%v workers=%d: op %v/%v, want %v/%v",
					kind, w, got.OpPlan, got.Differentiated, want.OpPlan, want.Differentiated)
			}
			if got.Seconds != want.Seconds {
				t.Fatalf("%v workers=%d: seconds %v, want %v", kind, w, got.Seconds, want.Seconds)
			}
			if got.PlansTried != want.PlansTried || got.PlansPruned != want.PlansPruned || got.CacheHits != want.CacheHits {
				t.Fatalf("%v workers=%d: counters tried=%d pruned=%d hits=%d, want %d/%d/%d",
					kind, w, got.PlansTried, got.PlansPruned, got.CacheHits,
					want.PlansTried, want.PlansPruned, want.CacheHits)
			}
			if !reflect.DeepEqual(got.Trace, want.Trace) {
				t.Fatalf("%v workers=%d: trace diverged\n got  %+v\n want %+v", kind, w, got.Trace, want.Trace)
			}
			if !reflect.DeepEqual(got.Partition.TaskOffsets, want.Partition.TaskOffsets) ||
				!reflect.DeepEqual(got.Partition.Order, want.Partition.Order) {
				t.Fatalf("%v workers=%d: selected partition diverged", kind, w)
			}
			if !reflect.DeepEqual(got.Classification.Counts, want.Classification.Counts) {
				t.Fatalf("%v workers=%d: classification %v, want %v",
					kind, w, got.Classification.Counts, want.Classification.Counts)
			}
		}
	}
}

// TestSearchTraceRecordsPrunedPlans checks that structurally pruned plans
// appear in the trace by name with the "pruned" stage.
func TestSearchTraceRecordsPrunedPlans(t *testing.T) {
	g := skewedGraph(10)
	res := Search(g, nn.GCN, 32, 32, 1, Options{Spec: device.A100()})
	if res.PlansPruned == 0 {
		t.Skip("no plans pruned at this scale")
	}
	n := 0
	for _, s := range res.Trace {
		if s.Stage == "pruned" {
			n++
			if s.Desc == "" {
				t.Fatal("pruned trace step is missing the plan name")
			}
			if s.Seconds != 0 {
				t.Fatalf("pruned step has modeled time %v", s.Seconds)
			}
		}
	}
	if n != res.PlansPruned {
		t.Fatalf("%d pruned steps in trace, PlansPruned=%d", n, res.PlansPruned)
	}
}
