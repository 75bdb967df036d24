package bench

import (
	"fmt"
	"time"

	"wisegraph/internal/joint"
	"wisegraph/internal/kernels"
	"wisegraph/internal/nn"
	"wisegraph/internal/train"
)

// Fig21 reproduces the sampled-graph training study: (a) reusing the plan
// tuned on one subgraph across fresh subgraphs retains most of the
// performance of per-subgraph full optimization; (b) the sampling +
// partitioning CPU pipeline hides under the epoch time once enough
// threads are available.
func Fig21(cfg Config) (*Table, error) {
	t := &Table{
		ID:     "fig21",
		Title:  "sampled-graph training: plan reuse and CPU overlap",
		Header: []string{"dataset", "metric", "value"},
	}
	h := cfg.hidden()
	sp := spec()
	subgraphs := 4
	if cfg.Quick {
		subgraphs = 2
	}
	for _, name := range []string{"PA", "FS"} {
		ds, err := cfg.loadDataset(name)
		if err != nil {
			return nil, err
		}
		tr, err := train.NewSampled(ds, nn.Config{Kind: nn.SAGE, Hidden: h, Layers: 2, Seed: cfg.Seed + 3},
			0.01, []int{10, 10}, 256, cfg.Seed+11)
		if err != nil {
			return nil, err
		}
		// tune on the first subgraph, then compare full-opt vs reuse on
		// fresh subgraphs
		tuned := tr.TunePlans(sp, 1)
		var fullSecs, reuseSecs float64
		var sampleWall, partWall time.Duration
		for i := 0; i < subgraphs; i++ {
			t0 := time.Now()
			sub := tr.NextBatch()
			sampleWall += time.Since(t0)
			// full optimization on this subgraph
			full := joint.Search(sub.Graph, nn.SAGE, h, h, 1, joint.Options{Spec: sp})
			fullSecs += full.Seconds
			// reuse the tuned plan: O(E) partition only
			t1 := time.Now()
			part := train.ReusePlan(tuned, sub.Graph)
			partWall += time.Since(t1)
			sh := kernels.LayerShape{Kind: nn.SAGE, F: h, Fp: h, Types: 1}
			sched := joint.UniformSchedule(sp, part, sh, tuned.OpPlan)
			reuseSecs += joint.LayerTime(sp, sh, sub.Graph.NumVertices, sched)
		}
		rel := fullSecs / reuseSecs
		t.AddRow(name, "reuse relative performance", fmt.Sprintf("%.2f (paper: ~0.91)", rel))
		// overlap: scale single-thread CPU costs against the epoch time
		iters := float64(len(ds.TrainMask))/256 + 1
		epochSecs := reuseSecs / float64(subgraphs) * iters * 6 // fwd+bwd, 3 layers
		om := train.OverlapModel{
			SampleSeconds:    sampleWall.Seconds() / float64(subgraphs) * iters,
			PartitionSeconds: partWall.Seconds() / float64(subgraphs) * iters,
			EpochSeconds:     epochSecs,
		}
		for _, th := range []int{2, 8, 16, 24} {
			s, sp2, ep := om.At(th)
			t.AddRow(name, fmt.Sprintf("threads=%d sample/sample+opt/epoch (s)", th),
				fmt.Sprintf("%.3f / %.3f / %.3f", s, sp2, ep))
		}
		if at := om.FullyOverlappedAt(128); at > 0 {
			t.AddRow(name, "fully overlapped at", fmt.Sprintf("%d threads", at))
		}
	}
	t.Notes = append(t.Notes, "paper: reuse keeps 91% of full-opt performance; with ~24 CPU threads sample+partition hides under the epoch")
	return t, nil
}

// paperConvPA is the paper's measured SAGE convergence time on PA in
// seconds (Table 3), the denominator of its "< 2 %" overhead claim.
const paperConvPA = 18915.0

// Table3 reproduces the pre-processing overhead breakdown for training
// SAGE on PA and AR: wall-measured steps where the work is real (model
// init, joint optimization) and modeled steps where the environment is
// simulated (disk load at 2 GB/s, convergence = 100 epochs of simulated
// epoch time scaled to paper size).
func Table3(cfg Config) (*Table, error) {
	t := &Table{
		ID:     "table3",
		Title:  "processing time for training SAGE (seconds)",
		Header: []string{"step", "PA", "AR"},
	}
	h := cfg.hidden()
	sp := spec()
	type colT struct {
		init, disk, conv, opt float64
	}
	cols := map[string]*colT{}
	for _, name := range []string{"PA", "AR"} {
		ds, err := cfg.loadDataset(name)
		if err != nil {
			return nil, err
		}
		c := &colT{}
		t0 := time.Now()
		tr, err := train.NewFullGraph(ds, nn.Config{Kind: nn.SAGE, Hidden: h, Layers: cfg.layers(), Seed: 1}, 0.01)
		if err != nil {
			return nil, err
		}
		c.init = time.Since(t0).Seconds() * float64(ds.Scale)
		// disk → DRAM: paper-scale features at 2 GB/s
		paperBytes := float64(ds.Spec.Vertices) * float64(ds.Spec.Dim) * 4
		c.disk = paperBytes / 2e9
		res := tr.Tune(sp)
		// joint optimization at paper scale: the searched plan count ×
		// O(E) GPU graph processing (the paper partitions on GPU at
		// hundreds of millions of edges per second) plus the cost-model
		// evaluation, which is proportional to task counts.
		const gpuPartitionRate = 400e6 // edges/s per plan
		c.opt = float64(res.PlansTried) * float64(ds.Spec.Edges) / gpuPartitionRate
		// convergence: 100 epochs of the tuned simulated epoch time at
		// paper scale (epoch time scales with the edge count)
		sh := kernels.LayerShape{Kind: nn.SAGE, F: h, Fp: h, Types: 1}
		sched := joint.UniformSchedule(sp, res.Partition, sh, res.OpPlan)
		epoch := joint.LayerTime(sp, sh, ds.Graph.NumVertices, sched) * float64(cfg.layers()) * 3
		c.conv = epoch * 100 * float64(ds.Scale)
		cols[name] = c
	}
	row := func(label string, get func(*colT) float64) {
		t.AddRow(label, f2(get(cols["PA"])), f2(get(cols["AR"])))
	}
	t.AddRow("environment setup", "1.20", "1.20")
	row("train initialization", func(c *colT) float64 { return c.init })
	row("disk to DRAM", func(c *colT) float64 { return c.disk })
	row("convergence (100 epochs)", func(c *colT) float64 { return c.conv })
	row("joint optimization", func(c *colT) float64 { return c.opt })
	pa := cols["PA"]
	t.Notes = append(t.Notes,
		fmt.Sprintf("joint optimization on PA: %.0fs modeled vs paper's 100s; %.2f%% of the paper's measured convergence time (paper: <2%%)",
			pa.opt, pa.opt/paperConvPA*100),
		"the simulated convergence epochs exclude the evaluation passes and host-side overheads the paper's wall measurement includes, so the replica convergence column underestimates the paper's",
		"init is wall-measured and scaled; disk, convergence and joint-opt are modeled (see DESIGN.md)")
	return t, nil
}
