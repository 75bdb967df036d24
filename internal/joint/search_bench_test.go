package joint

import (
	"fmt"
	"runtime"
	"testing"

	"wisegraph/internal/dataset"
	"wisegraph/internal/device"
	"wisegraph/internal/graph/gen"
	"wisegraph/internal/nn"
)

// BenchmarkJointSearch measures a full three-stage search on a typed
// power-law graph, at one worker and at the machine's CPU count. The
// Result is identical in both configurations (see
// TestSearchDeterministicAcrossWorkerCounts); only wall-clock differs.
//
// The train-fullgraph case is the end-to-end benchmark's set-up tune: AR
// at scale 10 (16 900 vertices, 230 000 edges, 8 edge types), one SAGE
// 64 → 64 layer, at one worker.
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
	b.Run("train-fullgraph/SAGE/workers=1", func(b *testing.B) {
		ds, err := dataset.Load("AR", dataset.Options{Scale: 10, Seed: 1, Homophily: 0.85, FeatureNoise: 0.8})
		if err != nil {
			b.Fatal(err)
		}
		runtime.GOMAXPROCS(1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			Search(ds.Graph, nn.SAGE, 64, 64, ds.Graph.NumTypes, Options{Spec: device.A100()})
		}
	})
}
