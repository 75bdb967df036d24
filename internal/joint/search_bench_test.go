package joint

import (
	"fmt"
	"runtime"
	"testing"

	"wisegraph/internal/device"
	"wisegraph/internal/graph/gen"
	"wisegraph/internal/nn"
)

// BenchmarkJointSearch measures a full three-stage search on a typed
// power-law graph, at one worker and at the machine's CPU count. The
// Result is identical in both configurations (see
// TestSearchDeterministicAcrossWorkerCounts); only wall-clock differs.
func BenchmarkJointSearch(b *testing.B) {
	g := gen.Generate(gen.Config{
		NumVertices: 8000, NumEdges: 80000,
		Kind: gen.PowerLaw, Skew: 1.0, NumTypes: 4, Seed: 13,
	}).Graph
	g.InDegrees()
	g.OutDegrees()
	workers := []int{1}
	if n := runtime.NumCPU(); n > 1 {
		workers = append(workers, n)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, kind := range []nn.ModelKind{nn.RGCN, nn.GCN} {
		for _, w := range workers {
			b.Run(fmt.Sprintf("%v/workers=%d", kind, w), func(b *testing.B) {
				runtime.GOMAXPROCS(w)
				for i := 0; i < b.N; i++ {
					Search(g, kind, 64, 64, 4, Options{Spec: device.A100()})
				}
			})
		}
	}
}
