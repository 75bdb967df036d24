// Command wisegraph-train trains a GNN on a synthetic dataset replica
// with optional joint-optimization reporting.
//
// Usage:
//
//	wisegraph-train -dataset AR -model SAGE -epochs 30
//	wisegraph-train -dataset AR -model RGCN -hidden 64 -tune
//	wisegraph-train -dataset PA -model SAGE -sampled -fanout 10,10 -batch 256
package main

import (
	"flag"
	"fmt"
	"os"

	"wisegraph"
	"wisegraph/internal/fault"
	"wisegraph/internal/obs"
	"wisegraph/internal/train"
)

func main() {
	var (
		dsName    = flag.String("dataset", "AR", "dataset name (see wgbench -list or README)")
		model     = flag.String("model", "SAGE", "model: GCN, SAGE, SAGE-LSTM, GAT, RGCN")
		hidden    = flag.Int("hidden", 64, "hidden dimension")
		layers    = flag.Int("layers", 3, "model layers")
		epochs    = flag.Int("epochs", 30, "training epochs")
		lr        = flag.Float64("lr", 0.01, "learning rate")
		scale     = flag.Int("scale", 0, "dataset scale divisor override")
		seed      = flag.Uint64("seed", 1, "random seed")
		tune      = flag.Bool("tune", false, "run joint optimization and report the chosen plan")
		sampled   = flag.Bool("sampled", false, "use sampled-graph (mini-batch) training")
		fanout    = flag.String("fanout", "10,10", "sampling fan-outs (comma-separated)")
		batch     = flag.Int("batch", 256, "mini-batch seed count")
		noise     = flag.Float64("noise", 0.8, "feature noise (lower = easier task)")
		savePlan  = flag.String("save-plan", "", "write the tuned execution plan as JSON (implies -tune)")
		saveCkpt  = flag.String("save-checkpoint", "", "write a model checkpoint after training (v2: embeds the model config, consumable by wisegraph-serve)")
		loadCkpt  = flag.String("load-checkpoint", "", "restore a model checkpoint before training")
		traceOut  = flag.String("trace", "", "write phase spans as Chrome trace-event JSON (open in chrome://tracing or Perfetto)")
		faultSpec = flag.String("fault-spec", "", "deterministic fault-injection schedule, e.g. seed=42;train.step:error=0.05;nn.checkpoint:error=0.01")
		autoCkpt  = flag.String("auto-checkpoint", "", "train-state file for periodic auto-checkpoint and fault recovery (full-graph mode)")
		ckptEvery = flag.Int("checkpoint-every", 5, "epochs between auto-checkpoints")
		resume    = flag.Bool("resume", false, "resume from -auto-checkpoint when the file exists")
	)
	flag.Parse()
	if *faultSpec != "" {
		sched, err := fault.Parse(*faultSpec)
		if err != nil {
			fatal(err)
		}
		fault.Set(sched)
		fmt.Printf("fault injection: %s\n", sched)
	}
	if *traceOut != "" {
		obs.Enable(obs.DefaultRingSize)
		defer writeTrace(*traceOut)
	}
	if *savePlan != "" {
		*tune = true
	}

	kind, err := wisegraph.ParseModel(*model)
	if err != nil {
		fatal(err)
	}
	ds, err := wisegraph.LoadDataset(*dsName, wisegraph.DatasetOptions{
		Scale: *scale, Seed: *seed, Homophily: 0.85, FeatureNoise: *noise,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("dataset %s: %v (scale 1/%d), %d classes, dim %d\n",
		*dsName, ds.Graph, ds.Scale, ds.Classes(), ds.Dim())

	cfg := wisegraph.ModelConfig{Kind: kind, Hidden: *hidden, Layers: *layers, Seed: *seed}

	if *sampled {
		fans, err := wisegraph.ParseFanouts(*fanout)
		if err != nil {
			fatal(err)
		}
		tr, err := wisegraph.NewSampledTrainer(ds, cfg, *lr, fans, *batch, *seed)
		if err != nil {
			fatal(err)
		}
		if *loadCkpt != "" {
			restoreCheckpoint(tr.Model, *loadCkpt)
		}
		for ep := 0; ep < *epochs; ep++ {
			loss := tr.Iteration()
			fmt.Printf("iter %3d  loss %.4f\n", ep, loss)
		}
		if *tune {
			res := tr.TunePlans(wisegraph.A100(), 2)
			fmt.Printf("tuned plan: %v + %v (reused across subgraphs)\n", res.GraphPlan, res.OpPlan)
		}
		if *saveCkpt != "" {
			writeCheckpoint(tr.Model, *saveCkpt)
		}
		return
	}

	tr, err := wisegraph.NewTrainer(ds, cfg, *lr)
	if err != nil {
		fatal(err)
	}
	if *loadCkpt != "" {
		restoreCheckpoint(tr.Model, *loadCkpt)
	}
	// The search reads the graph and the model's shape, not its weights:
	// the plan tuned before training also runs the accuracy check after.
	var res *wisegraph.ExecutionPlan
	if *tune {
		res = tr.Tune(wisegraph.A100())
		fmt.Printf("joint optimization: %d plans tried, %d pruned, %d cache hits\n",
			res.PlansTried, res.PlansPruned, res.CacheHits)
		fmt.Printf("selected: %v + %v, differentiated=%v, modeled layer time %.3f ms\n",
			res.GraphPlan, res.OpPlan, res.Differentiated, res.Seconds*1e3)
		fmt.Printf("outliers: %d of %d tasks\n", res.Classification.Outliers(), res.Partition.NumTasks())
		if *savePlan != "" {
			data, err := res.MarshalPlan()
			if err != nil {
				fatal(err)
			}
			if err := os.WriteFile(*savePlan, data, 0o644); err != nil {
				fatal(err)
			}
			fmt.Printf("wrote plan to %s\n", *savePlan)
		}
	}
	if *autoCkpt != "" {
		if !*resume {
			os.Remove(*autoCkpt)
		}
		rep, err := tr.RunResilient(*epochs, *ckptEvery, &train.FileStore{Path: *autoCkpt})
		if err != nil {
			fatal(err)
		}
		if rep.ResumedFrom >= 0 {
			fmt.Printf("resumed from epoch %d (%s)\n", rep.ResumedFrom, *autoCkpt)
		}
		for _, st := range rep.Stats {
			fmt.Printf("epoch %3d  loss %.4f  val %.3f  test %.3f  (%v)\n",
				st.Epoch, st.Loss, st.ValAcc, st.TestAcc, st.Duration.Round(1e6))
		}
		if rep.Recoveries > 0 || rep.SaveFailures > 0 {
			fmt.Printf("resilience: %d recoveries, %d checkpoint-save failures\n",
				rep.Recoveries, rep.SaveFailures)
		}
	} else {
		for _, st := range tr.Run(*epochs) {
			fmt.Printf("epoch %3d  loss %.4f  val %.3f  test %.3f  (%v)\n",
				st.Epoch, st.Loss, st.ValAcc, st.TestAcc, st.Duration.Round(1e6))
		}
	}
	if m, err := tr.Metrics(ds.TestMask); err == nil {
		fmt.Printf("test metrics: %v\n", m)
	}
	if *saveCkpt != "" {
		writeCheckpoint(tr.Model, *saveCkpt)
	}
	if res != nil {
		acc, err := tr.GTaskTestAccuracy(res)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("gTask-execution test accuracy: %.3f (parity check)\n", acc)
	}
}

// writeCheckpoint saves a v2 checkpoint (config embedded, so
// wisegraph-serve can reconstruct the model from the file alone).
func writeCheckpoint(m *wisegraph.Model, path string) {
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	if err := m.SaveCheckpoint(f); err != nil {
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote checkpoint %s\n", path)
}

// writeTrace dumps the span ring to path as Chrome trace-event JSON.
func writeTrace(path string) {
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	if err := obs.WriteChromeTrace(f); err != nil {
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote trace %s (%d spans)\n", path, len(obs.Spans()))
}

func restoreCheckpoint(m *wisegraph.Model, path string) {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	if err := m.LoadCheckpoint(f); err != nil {
		fatal(err)
	}
	f.Close()
	fmt.Printf("restored checkpoint %s\n", path)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
