package serve

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"wisegraph/internal/dataset"
	"wisegraph/internal/device"
	"wisegraph/internal/joint"
	"wisegraph/internal/nn"
	"wisegraph/internal/train"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata")

// TestTunedPlansGolden holds the plans the end-to-end benchmark executes to
// testdata/tuned.golden: the one train.FullGraph.Tune picks for its
// full-graph training and the one NewEngine tunes for serving, on AR at
// scale 10 with the benchmark's dataset options (seed 1, homophily 0.85,
// feature noise 0.8) and a SAGE model of 3 × 64 layers; the engine runs
// its default batch cap and fan-outs under sampler seed 1. A change that
// moves what those workloads run shows as a diff of that file; go test
// -run TunedPlansGolden -update rewrites it.
func TestTunedPlansGolden(t *testing.T) {
	ds, err := dataset.Load("AR", dataset.Options{Scale: 10, Seed: 1, Homophily: 0.85, FeatureNoise: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	cfg := nn.Config{Kind: nn.SAGE, InDim: ds.Dim(), Hidden: 64, OutDim: ds.Classes(), Layers: 3, NumTypes: ds.Graph.NumTypes, Seed: 1}
	var b strings.Builder
	line := func(who string, res *joint.Result) {
		fmt.Fprintf(&b, "%s %v %s dedup=%v batched=%v tried=%d seconds=%.6g\n",
			who, res.Kind, res.GraphPlan.Name, res.OpPlan.Dedup, res.OpPlan.Batched, res.PlansTried, res.Seconds)
	}
	fg, err := train.NewFullGraph(ds, cfg, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	line("train.FullGraph.Tune", fg.Tune(device.A100()))
	m, err := nn.NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	line("serve.NewEngine", testEngine(t, ds, m, Options{Seed: 1}).Plan())

	got := b.String()
	const path = "testdata/tuned.golden"
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Fatalf("%s differs (go test -run TunedPlansGolden -update rewrites it):\ngot:\n%swant:\n%s", path, got, want)
	}
}
