package wisegraph

import (
	"fmt"
	"testing"

	"wisegraph/internal/bench"
	"wisegraph/internal/core"
	"wisegraph/internal/device"
	"wisegraph/internal/exec"
	"wisegraph/internal/joint"
	"wisegraph/internal/kernels"
	"wisegraph/internal/nn"
)

// benchCfg keeps the paper-experiment benchmarks fast enough for
// `go test -bench` while exercising the full pipeline.
func benchCfg() bench.Config { return bench.Config{Quick: true, Seed: 1, Epochs: 5} }

// runExp benchmarks one paper experiment end to end.
func runExp(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		e, err := bench.Find(id)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := e.Run(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// One benchmark per paper table and figure (DESIGN.md's experiment index).

func BenchmarkTable1Datasets(b *testing.B)     { runExp(b, "table1") }
func BenchmarkFig3aComputeMemory(b *testing.B) { runExp(b, "fig3a") }
func BenchmarkFig3bBreakdown(b *testing.B)     { runExp(b, "fig3b") }
func BenchmarkFig13SingleGPU(b *testing.B)     { runExp(b, "fig13") }
func BenchmarkTable2MultiGPU(b *testing.B)     { runExp(b, "table2") }
func BenchmarkFig14Accuracy(b *testing.B)      { runExp(b, "fig14") }
func BenchmarkFig14bCurve(b *testing.B)        { runExp(b, "fig14b") }
func BenchmarkFig15Partitions(b *testing.B)    { runExp(b, "fig15") }
func BenchmarkFig16SearchTrace(b *testing.B)   { runExp(b, "fig16") }
func BenchmarkFig17Dedup(b *testing.B)         { runExp(b, "fig17") }
func BenchmarkFig18Batching(b *testing.B)      { runExp(b, "fig18") }
func BenchmarkFig19Outliers(b *testing.B)      { runExp(b, "fig19") }
func BenchmarkFig20Placement(b *testing.B)     { runExp(b, "fig20") }
func BenchmarkFig21SampledReuse(b *testing.B)  { runExp(b, "fig21") }
func BenchmarkTable3Overhead(b *testing.B)     { runExp(b, "table3") }

// --- Ablation benchmarks for the design choices DESIGN.md calls out ---

func ablationSetup(b *testing.B) (*Dataset, kernels.LayerShape) {
	b.Helper()
	ds, err := LoadDataset("AR", DatasetOptions{Scale: 100, Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	return ds, kernels.LayerShape{Kind: nn.RGCN, F: 64, Fp: 64, Types: ds.Graph.NumTypes}
}

// BenchmarkAblationBatchKernel compares edge-wise vs batched micro-kernel
// scheduling cost evaluation over the same partition.
func BenchmarkAblationBatchKernel(b *testing.B) {
	ds, sh := ablationSetup(b)
	part := Partition(ds.Graph, core.GraphPlan{Name: "src-32-type-1", Restrictions: []core.Restriction{
		{Attr: core.AttrSrcID, Kind: core.Exact, Limit: 32},
		{Attr: core.AttrEdgeType, Kind: core.Exact, Limit: 1},
	}})
	sp := device.A100()
	b.Run("edgewise", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			joint.UniformSchedule(sp, part, sh, kernels.Plan{}).Makespan(sp.NumUnits)
		}
	})
	b.Run("batched", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			joint.UniformSchedule(sp, part, sh, kernels.Plan{Batched: true}).Makespan(sp.NumUnits)
		}
	})
	b.Run("batched-dedup", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			joint.UniformSchedule(sp, part, sh, kernels.Plan{Batched: true, Dedup: true}).Makespan(sp.NumUnits)
		}
	})
}

// BenchmarkAblationOutlier compares uniform vs differentiated scheduling.
func BenchmarkAblationOutlier(b *testing.B) {
	ds, sh := ablationSetup(b)
	part := Partition(ds.Graph, VertexCentricPlan())
	cls := joint.Classify(part)
	sp := device.A100()
	op := kernels.Plan{Batched: true}
	b.Run("uniform", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			joint.UniformSchedule(sp, part, sh, op).Makespan(sp.NumUnits)
		}
	})
	b.Run("differentiated", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			joint.DifferentiatedSchedule(sp, part, sh, op, cls).Makespan(sp.NumUnits)
		}
	})
}

// BenchmarkAblationPruning measures the joint search with and without the
// cost-model pruning filter.
func BenchmarkAblationPruning(b *testing.B) {
	ds, _ := ablationSetup(b)
	b.Run("pruned", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			joint.Search(ds.Graph, nn.RGCN, 64, 64, ds.Graph.NumTypes,
				joint.Options{Spec: device.A100()})
		}
	})
}

// BenchmarkPartition measures the greedy O(E) partitioner itself.
func BenchmarkPartition(b *testing.B) {
	ds, _ := ablationSetup(b)
	plans := map[string]core.GraphPlan{
		"vertex-centric": core.VertexCentric(),
		"src32-type1": {Name: "s", Restrictions: []core.Restriction{
			{Attr: core.AttrSrcID, Kind: core.Exact, Limit: 32},
			{Attr: core.AttrEdgeType, Kind: core.Exact, Limit: 1},
		}},
		"dst32-degmin": {Name: "d", Restrictions: []core.Restriction{
			{Attr: core.AttrDstID, Kind: core.Exact, Limit: 32},
			{Attr: core.AttrDstDegree, Kind: core.Min},
		}},
	}
	for name, plan := range plans {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Partition(ds.Graph, plan)
			}
			b.ReportMetric(float64(ds.Graph.NumEdges()), "edges")
		})
	}
}

// BenchmarkTrainStep measures one full-graph training iteration per model.
func BenchmarkTrainStep(b *testing.B) {
	ds, err := LoadDataset("AR", DatasetOptions{Scale: 400, FeatureDim: 32, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	for kind := nn.ModelKind(0); kind < nn.NumModels; kind++ {
		b.Run(kind.String(), func(b *testing.B) {
			tr, err := NewTrainer(ds, ModelConfig{Kind: kind, Hidden: 32, Layers: 2, Seed: 4}, 0.01)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr.Epoch()
			}
		})
	}
}

// BenchmarkGTaskForward measures the real fused gTask forward execution.
func BenchmarkGTaskForward(b *testing.B) {
	ds, err := LoadDataset("AR", DatasetOptions{Scale: 400, FeatureDim: 32, Seed: 5})
	if err != nil {
		b.Fatal(err)
	}
	tr, err := NewTrainer(ds, ModelConfig{Kind: GCN, Hidden: 32, Layers: 2, Seed: 5}, 0.01)
	if err != nil {
		b.Fatal(err)
	}
	plan := tr.Tune(device.A100())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.GTaskTestAccuracy(plan); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineForward times the real forward numerics at the
// bandwidth-bound shape (F=64) once per model — every engine runs the
// same layer body — and reports each engine's modeled bytes-moved per forward.
func BenchmarkEngineForward(b *testing.B) {
	ds, err := LoadDataset("AR", DatasetOptions{Scale: 400, FeatureDim: 64, Seed: 6})
	if err != nil {
		b.Fatal(err)
	}
	gc := nn.NewGraphCtx(ds.Graph)
	part := Partition(ds.Graph, core.VertexCentric())
	for kind := nn.ModelKind(0); kind < nn.NumModels; kind++ {
		op := kernels.Plan{Batched: true}
		if kind == nn.RGCN {
			op.Dedup = true
		}
		m, err := nn.NewModel(ModelConfig{
			Kind: kind, InDim: ds.Dim(), Hidden: 64, OutDim: ds.Classes(),
			Layers: 2, NumTypes: ds.Graph.NumTypes, Seed: 6,
		})
		if err != nil {
			b.Fatal(err)
		}
		bytes := map[string]float64{}
		for _, engine := range kernels.EngineNames() {
			eng, err := kernels.Select(engine)
			if err != nil {
				b.Fatal(err)
			}
			for _, l := range m.Layers() {
				sh := kernels.LayerShape{Kind: kind, F: l.InDim(), Fp: l.OutDim(), Types: ds.Graph.NumTypes}
				bytes[engine] += eng.LayerBytes(sh, part, op)
			}
		}
		b.Run(fmt.Sprintf("model=%s/F=64", kind), func(b *testing.B) {
			b.ReportAllocs()
			ctx := exec.NewCtx(device.New(device.A100()))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := kernels.RunModel(ctx, gc, m, ds.Features, part, op); err != nil {
					b.Fatal(err)
				}
			}
			for engine, n := range bytes {
				b.ReportMetric(n, engine+"-bytes-moved/op")
			}
		})
	}
}
