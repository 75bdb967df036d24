package nn

import (
	"runtime"
	"testing"

	"wisegraph/internal/graph/gen"
	"wisegraph/internal/tensor"
)

// BenchmarkTrainStep measures one steady-state full forward/backward/
// update iteration on a power-law graph at the paper's hidden dimension
// (256). Allocation counts here are the headline number for the buffer-
// pooling work: steady-state training should approach zero allocations
// per iteration. Numbers recorded in EXPERIMENTS.md.
func BenchmarkTrainStep(b *testing.B) {
	old := runtime.GOMAXPROCS(4)
	b.Cleanup(func() { runtime.GOMAXPROCS(old) })
	res := gen.Generate(gen.Config{
		NumVertices: 2000, NumEdges: 30000,
		Kind: gen.PowerLaw, Skew: 1.0,
		NumBlocks: 7, Homophily: 0.9, Seed: 21,
	})
	g := res.Graph
	gc := NewGraphCtx(g)
	rng := tensor.NewRNG(33)
	x := tensor.Uniform(tensor.New(g.NumVertices, 64), rng, -1, 1)
	labels := make([]int32, g.NumVertices)
	for i := range labels {
		labels[i] = res.Block[i]
	}
	mask := make([]int32, g.NumVertices)
	for i := range mask {
		mask[i] = int32(i)
	}
	for _, kind := range []ModelKind{GCN, SAGE} {
		b.Run(kind.String(), func(b *testing.B) {
			m, err := NewModel(Config{
				Kind: kind, InDim: 64, Hidden: 256, OutDim: 7, Layers: 3, Seed: 5,
			})
			if err != nil {
				b.Fatal(err)
			}
			opt := NewAdam(1e-3, m.Params())
			m.TrainStep(gc, x, labels, mask, opt) // warm caches
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.TrainStep(gc, x, labels, mask, opt)
			}
		})
	}
}
