package bench

import (
	"fmt"
	"runtime"
	"time"

	"wisegraph/internal/core"
	"wisegraph/internal/dist"
	"wisegraph/internal/graph"
	"wisegraph/internal/joint"
	"wisegraph/internal/kernels"
	"wisegraph/internal/nn"
	"wisegraph/internal/pattern"
	"wisegraph/internal/tensor"
	"wisegraph/internal/train"
)

// ExtReorder demonstrates the paper's §4.3 claim that Metis-style
// clustering reorders and gTask partitioning compose: reorder first for
// locality, then partition. It reports per-task duplication and modeled
// time before and after two reorders (BFS clustering and balanced label
// propagation).
func ExtReorder(cfg Config) (*Table, error) {
	ds, err := cfg.loadDataset("AR")
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "ext-reorder",
		Title:  "EXTENSION — reorder + gTask partition composition (§4.3)",
		Header: []string{"ordering", "plan", "tasks", "med-uniq-src", "dup-src%", "layer-ms"},
	}
	h := cfg.hidden()
	sp := spec()
	plan := core.GraphPlan{Name: "2d-64", Restrictions: []core.Restriction{
		{Attr: core.AttrDstID, Kind: core.Exact, Limit: 64},
		{Attr: core.AttrSrcID, Kind: core.Exact, Limit: 64},
	}}
	sh := kernels.LayerShape{Kind: nn.RGCN, F: h, Fp: h, Types: ds.Graph.NumTypes}
	op := kernels.Plan{Batched: true, Dedup: true}
	eval := func(label string, g *graph.Graph) {
		part := core.PartitionGraph(g, plan, searchAttrs)
		pp := pattern.Analyze(part, searchAttrs)
		secs := joint.LayerTime(sp, sh, g.NumVertices, joint.UniformSchedule(sp, part, sh, op))
		t.AddRow(label, plan.Name, fmt.Sprintf("%d", part.NumTasks()),
			fmt.Sprintf("%d", pp.MedianUniq[core.AttrSrcID]),
			f2(pp.DupFraction[core.AttrSrcID]*100), ms(secs))
	}
	eval("original", ds.Graph)

	bfs := ds.Graph.Clone()
	bfs.RelabelVertices(graph.ClusterReorder(bfs))
	eval("bfs-cluster", bfs)

	lp := ds.Graph.Clone()
	blocks := graph.LabelPropagationBlocks(lp, 64, 8, cfg.Seed)
	lp.RelabelVertices(graph.BlocksToRelabel(blocks))
	eval("label-prop", lp)

	t.Notes = append(t.Notes, "reordering clusters connected vertices into nearby ids, so id-restricted gTasks capture more shared sources (higher duplication ⇒ more dedup)")
	return t, nil
}

// ExtEngine runs the real distributed engine and cross-checks the
// measured communication volumes against the analytic placement model —
// plus the label-propagation partition's measured reduction.
func ExtEngine(cfg Config) (*Table, error) {
	ds, err := cfg.loadDataset("PA")
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "ext-engine",
		Title:  "EXTENSION — executable multi-device engine: measured comm volume (MB)",
		Header: []string{"partition", "strategy", "measured", "model", "match"},
	}
	g := ds.Graph
	f, fp := 32, 16
	rng := tensor.NewRNG(cfg.Seed + 41)
	layer := nn.NewGCNLayer(rng, f, fp)
	x := tensor.New(g.NumVertices, f)
	tensor.Uniform(x, rng, -1, 1)
	// One replica of layer per device: the same seed draws the same weights.
	replicas := make([]nn.Layer, 4)
	for d := range replicas {
		replicas[d] = nn.NewGCNLayer(tensor.NewRNG(cfg.Seed+41), f, fp)
	}

	run := func(label string, gg *graph.Graph) error {
		e := dist.NewEngine(dist.NewCluster(4), gg)
		gs := dist.Analyze(gg, 4)
		cases := []struct {
			strat dist.Strategy
			model float64
		}{
			{dist.DPPre, float64(gs.UniqRemoteSrc) * float64(f) * 4},
			{dist.DPPost, float64(gs.UniqRemoteSrc) * float64(fp) * 4},
		}
		for _, c := range cases {
			e.ResetComm()
			if _, err := e.Forward(replicas, e.Shard(x), c.strat); err != nil {
				return err
			}
			got := e.CommBytes()
			match := "OK"
			if diff := got - c.model; diff > 1 || diff < -1 {
				match = "MISMATCH"
			}
			t.AddRow(label, c.strat.String(), f2(got/1e6), f2(c.model/1e6), match)
		}
		// tensor parallel
		e.ResetComm()
		e.GCNForwardTP(layer, e.ShardColumns(x))
		tpModel := 3.0 * float64(g.NumVertices) * float64(fp) * 4
		got := e.CommBytes()
		match := "OK"
		if diff := got - tpModel; diff > 1 || diff < -1 {
			match = "MISMATCH"
		}
		t.AddRow(label, "TP", f2(got/1e6), f2(tpModel/1e6), match)
		return nil
	}
	// The replica's planted communities are contiguous id ranges, so the
	// contiguous partition is already community-aligned. Shuffle vertex
	// ids first (as real datasets arrive) to give the partitioner
	// something to recover.
	shuffled := g.Clone()
	perm := make([]int32, g.NumVertices)
	for i := range perm {
		perm[i] = int32(i)
	}
	srng := tensor.NewRNG(cfg.Seed + 43)
	for i := len(perm) - 1; i > 0; i-- {
		j := srng.Intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	shuffled.RelabelVertices(perm)
	if err := run("shuffled", shuffled); err != nil {
		return nil, err
	}
	lp := shuffled.Clone()
	blocks := graph.LabelPropagationBlocks(lp, 4, 8, cfg.Seed)
	lp.RelabelVertices(graph.BlocksToRelabel(blocks))
	if err := run("shuffled+label-prop", lp); err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes, "label propagation recovers the hidden communities and cuts the data-parallel exchange volume (the ROC effect, measured on real execution rather than modeled)")
	return t, nil
}

// ExtPipeline measures the wall-clock effect of overlapping sampling +
// partitioning with training across CPU workers (the executable version
// of Figure 21b).
func ExtPipeline(cfg Config) (*Table, error) {
	ds, err := cfg.loadDataset("PA")
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "ext-pipeline",
		Title:  "EXTENSION — asynchronous sampling pipeline (wall-clock)",
		Header: []string{"mode", "iters", "wall", "per-iter"},
	}
	iters := 30
	if cfg.Quick {
		iters = 10
	}
	mk := func(seed uint64) *train.Sampled {
		s, _ := train.NewSampled(ds, nn.Config{Kind: nn.SAGE, Hidden: cfg.hidden(), Layers: 2, Seed: seed},
			0.01, []int{10, 10}, 128, seed)
		return s
	}
	sp := spec()
	// serial: sample+partition inline with training
	serial := mk(cfg.Seed + 1)
	plan := serial.TunePlans(sp, 1)
	t0 := time.Now()
	serial.TrainSerial(plan, iters)
	serialWall := time.Since(t0)
	t.AddRow("serial", fmt.Sprintf("%d", iters), serialWall.Round(time.Millisecond).String(),
		(serialWall / time.Duration(iters)).Round(time.Microsecond).String())
	// pipelined: 4 CPU workers prepare batches concurrently
	pipe := mk(cfg.Seed + 1)
	t1 := time.Now()
	pipe.TrainPipelined(plan, 4, iters)
	pipeWall := time.Since(t1)
	t.AddRow("pipelined-4", fmt.Sprintf("%d", iters), pipeWall.Round(time.Millisecond).String(),
		(pipeWall / time.Duration(iters)).Round(time.Microsecond).String())
	speedup := float64(serialWall) / float64(pipeWall)
	cores := runtime.GOMAXPROCS(0)
	note := fmt.Sprintf("overlap speedup: %.2fx on %d CPU core(s)", speedup, cores)
	if cores <= 1 {
		note += " — a single core cannot overlap anything; on a multi-core host the prepared-batch queue hides the sampling+partition latency (the paper's GPU trains while CPUs sample)"
	}
	t.Notes = append(t.Notes, note)
	return t, nil
}

// ExtStages introspects the composed micro-kernel programs (paper §5.3):
// for RGCN's regular gTask it lists every stage's traffic and arithmetic
// under the three operation plans, showing where batching and dedup
// save work.
func ExtStages(cfg Config) (*Table, error) {
	ds, err := cfg.loadDataset("AR")
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "ext-stages",
		Title:  "EXTENSION — composed micro-kernel stages for RGCN's regular gTask",
		Header: []string{"plan", "stage", "kind", "KB", "KFLOP"},
	}
	h := cfg.hidden()
	res := joint.Search(ds.Graph, nn.RGCN, h, h, ds.Graph.NumTypes, joint.Options{Spec: spec()})
	st := pattern.Analyze(res.Partition, searchAttrs).RegularStats()
	sh := kernels.LayerShape{Kind: nn.RGCN, F: h, Fp: h, Types: ds.Graph.NumTypes}
	for _, pl := range []struct {
		name string
		plan kernels.Plan
	}{
		{"edge-wise", kernels.Plan{}},
		{"batched", kernels.Plan{Batched: true}},
		{"batched+dedup", kernels.Plan{Batched: true, Dedup: true}},
	} {
		prog := kernels.Compose(sh, pl.plan)
		for _, s := range prog.Stages {
			flops, bytes := s.Work(st)
			t.AddRow(pl.name, s.Name, s.Kind.String(), f2(bytes/1e3), f2(flops/1e3))
		}
		flops, bytes := prog.Totals(st)
		t.AddRow(pl.name, "TOTAL", "", f2(bytes/1e3), f2(flops/1e3))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("regular gTask of plan %v: %d edges, uniq(src)=%d uniq(type)=%d uniq(dst)=%d",
			res.GraphPlan.Name, st.Edges, st.UniqSrc, st.UniqType, st.UniqDst),
		"edge-wise reloads the weight matrix per edge; batching fetches it once per type; dedup shrinks the matmul to unique (src,type) pairs")
	return t, nil
}
