package bench

import (
	"fmt"

	"wisegraph/internal/core"
	"wisegraph/internal/device"
	"wisegraph/internal/joint"
	"wisegraph/internal/kernels"
	"wisegraph/internal/nn"
)

var searchAttrs = []core.Attr{core.AttrSrcID, core.AttrDstID, core.AttrEdgeType, core.AttrDstDegree}

// Fig17 reproduces the duplication-aware DFG transformation ablation: the
// normalized execution split (indexing vs neural) of the original DFG and
// the transformed one, plus the neural-workload reduction. Both are the
// gTask programs kernels.CompileDFG compiles — the transformed one is what
// the search's operation plan runs — priced over the whole layer under the
// plan the search picks: the fused stages on every task, the work outside
// the fused kernel (Program.Dense) once, so both count the same layer.
func Fig17(cfg Config) (*Table, error) {
	t := &Table{
		ID:     "fig17",
		Title:  "DFG transformation: normalized time split and neural-work reduction",
		Header: []string{"dataset", "model", "base-idx%", "base-NN%", "opt-idx%", "opt-NN%", "NN-reduction%"},
	}
	h := cfg.hidden()
	sp := spec()
	for _, dsName := range []string{"AR", "PA-S"} {
		ds, err := cfg.loadDataset(dsName)
		if err != nil {
			return nil, err
		}
		whole := kernels.StatsOf(core.PartitionGraph(ds.Graph, core.WholeGraph(), searchAttrs), 0)
		for _, kind := range []nn.ModelKind{nn.RGCN, nn.GAT, nn.SAGE} {
			res := joint.Search(ds.Graph, kind, h, h, ds.Graph.NumTypes, joint.Options{Spec: sp})
			layer := nn.LayerDFG(kind, ds.Graph.NumVertices, ds.Graph.NumTypes, h, h)
			baseIdx, baseNN, baseFl := split(sp, kernels.CompileDFG(layer, res.OpPlan.Batched), res.Partition, whole)
			optIdx, optNN, optFl := split(sp, kernels.CompileDFG(kernels.Transformed(layer, res.OpPlan), res.OpPlan.Batched), res.Partition, whole)
			t.AddRow(dsName, kind.String(),
				f2(pct(baseIdx, baseIdx+baseNN)), f2(pct(baseNN, baseIdx+baseNN)),
				f2(pct(optIdx, optIdx+optNN)), f2(pct(optNN, optIdx+optNN)),
				f2(reduction(baseFl, optFl)))
		}
	}
	t.Notes = append(t.Notes, "paper: RGCN on AR cuts neural work by 92.7%; SAGE has no duplication on AR but 78.5% on PA-S")
	return t, nil
}

// split prices a program over one layer as SIMT arithmetic plus memory
// time on sp — its fused stages on every task of part, its dense stages
// once at whole, the whole graph's statistics, which resolve their rows:
// the indexing stages' time, the neural stages' time and the neural
// stages' FLOPs.
func split(sp device.Spec, p kernels.Program, part *core.Partition, whole kernels.TaskStatsOf) (idx, neural, neuralFLOPs float64) {
	add := func(stages []kernels.Stage, st kernels.TaskStatsOf) {
		for _, s := range stages {
			flops, bytes := s.Work(st)
			secs := flops/sp.SIMTFLOPS + bytes/sp.MemBandwidth
			if s.Indexing {
				idx += secs
			} else {
				neural += secs
				neuralFLOPs += flops
			}
		}
	}
	for ti := range part.NumTasks() {
		add(p.Stages, kernels.StatsOf(part, ti))
	}
	add(p.Dense, whole)
	return idx, neural, neuralFLOPs
}

func pct(part, total float64) float64 {
	if total == 0 {
		return 0
	}
	return part / total * 100
}

func reduction(base, opt float64) float64 {
	if base == 0 {
		return 0
	}
	r := (1 - opt/base) * 100
	if r < 0 {
		return 0
	}
	return r
}

// Fig18 sweeps the batching factor K: RGCN with uniq(src-id)=K &
// uniq(edge-type)=1 and SAGE-LSTM with uniq(dst-id)=K &
// uniq(dst-degree)=min, reporting throughput (edges/second).
func Fig18(cfg Config) (*Table, error) {
	ds, err := cfg.loadDataset("AR")
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "fig18",
		Title:  "throughput (M edges/s) vs batching factor K",
		Header: []string{"model", "K", "throughput"},
	}
	h := cfg.hidden()
	ks := []int{1, 4, 16, 32, 64, 128, 256, 1024}
	if cfg.Quick {
		ks = []int{1, 32, 256}
	}
	e := float64(ds.Graph.NumEdges())
	sweep := func(kind nn.ModelKind, mkPlan func(k int) core.GraphPlan, op kernels.Plan) {
		for _, k := range ks {
			gp := mkPlan(k)
			part := core.PartitionGraph(ds.Graph, gp, searchAttrs)
			sh := kernels.LayerShape{Kind: kind, F: h, Fp: h, Types: ds.Graph.NumTypes}
			thisOp := op
			if k == 1 {
				thisOp = kernels.Plan{} // a single-element batch is edge-by-edge
			}
			sched := joint.UniformSchedule(spec(), part, sh, thisOp)
			secs := joint.LayerTime(spec(), sh, ds.Graph.NumVertices, sched)
			t.AddRow(kind.String(), fmt.Sprintf("%d", k), f2(e/secs/1e6))
		}
		// K = INF: whole graph in one task (tensor-centric equivalent)
		part := core.PartitionGraph(ds.Graph, core.WholeGraph(), searchAttrs)
		sh := kernels.LayerShape{Kind: kind, F: h, Fp: h, Types: ds.Graph.NumTypes}
		if kernels.ValidPlanFor(kind, core.WholeGraph()) {
			sched := joint.UniformSchedule(spec(), part, sh, op)
			secs := joint.LayerTime(spec(), sh, ds.Graph.NumVertices, sched)
			t.AddRow(kind.String(), "INF", f2(e/secs/1e6))
		}
	}
	sweep(nn.RGCN, func(k int) core.GraphPlan {
		return core.GraphPlan{Name: fmt.Sprintf("src-%d-type-1", k), Restrictions: []core.Restriction{
			{Attr: core.AttrSrcID, Kind: core.Exact, Limit: k},
			{Attr: core.AttrEdgeType, Kind: core.Exact, Limit: 1},
		}}
	}, kernels.Plan{Batched: true, Dedup: true})
	sweep(nn.SAGELSTM, func(k int) core.GraphPlan {
		return core.GraphPlan{Name: fmt.Sprintf("dst-%d-degmin", k), Restrictions: []core.Restriction{
			{Attr: core.AttrDstID, Kind: core.Exact, Limit: k},
			{Attr: core.AttrDstDegree, Kind: core.Min},
		}}
	}, kernels.Plan{Batched: true})
	t.Notes = append(t.Notes, "paper: batching improves RGCN 4.33x over the better of non-batched/tensor-centric; LSTM 6.10x")
	return t, nil
}

// Fig19 compares uniform vs differentiated outlier execution per model
// on AR: the outlier share of time and the reduction from differentiated
// scheduling.
func Fig19(cfg Config) (*Table, error) {
	ds, err := cfg.loadDataset("AR")
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "fig19",
		Title:  "differentiated outlier execution (per-layer makespan, simulated µs)",
		Header: []string{"model", "plan", "outliers", "uniform", "differentiated", "reduction%"},
	}
	h := cfg.hidden()
	sp := spec()
	for _, kind := range evalModels() {
		res := joint.Search(ds.Graph, kind, h, h, ds.Graph.NumTypes, joint.Options{Spec: sp})
		part := res.Partition
		cls := joint.Classify(part)
		sh := kernels.LayerShape{Kind: kind, F: h, Fp: h, Types: ds.Graph.NumTypes}
		uni := joint.UniformSchedule(sp, part, sh, res.OpPlan).Makespan(sp.NumUnits)
		best, _ := joint.BestSchedule(sp, part, sh, res.OpPlan, cls)
		diff := best.Makespan(sp.NumUnits)
		t.AddRow(kind.String(), res.GraphPlan.Name,
			fmt.Sprintf("%d/%d", cls.Outliers(), part.NumTasks()),
			f2(uni*1e6), f2(diff*1e6), f2(reduction(uni, diff)))
	}
	t.Notes = append(t.Notes, "paper: outliers take 52.9% of time on average; differentiated execution cuts total time by 33.1%")
	return t, nil
}
