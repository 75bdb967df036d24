package joint

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"wisegraph/internal/dataset"
	"wisegraph/internal/device"
	"wisegraph/internal/kernels"
	"wisegraph/internal/nn"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata")

// TestPicksGolden holds the plans the search picks — every model on AR
// and PA-S at the default dataset scale (seed 1), one 64 → 64 layer on
// the A100 model — to testdata/picks.golden: graph plan, operation plan,
// plans tried and modeled seconds, and the outlier pass on the pick:
// whether stage 3 won, the regular/underfill/overfill/frequent task
// counts Classify finds, and the layer time under the differentiated
// schedule. A change that moves a pick, its modeled time or its outlier
// handling shows as a diff of that file; go test -run PicksGolden
// -update rewrites it.
func TestPicksGolden(t *testing.T) {
	var b strings.Builder
	for _, name := range []string{"AR", "PA-S"} {
		ds, err := dataset.Load(name, dataset.Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		for kind := nn.ModelKind(0); kind < nn.NumModels; kind++ {
			spec := device.A100()
			res := Search(ds.Graph, kind, 64, 64, ds.Graph.NumTypes, Options{Spec: spec})
			cls := Classify(res.Partition)
			sh := kernels.LayerShape{Kind: kind, F: 64, Fp: 64, Types: ds.Graph.NumTypes}
			diffSecs := LayerTime(spec, sh, ds.Graph.NumVertices, DifferentiatedSchedule(spec, res.Partition, sh, res.OpPlan, cls))
			fmt.Fprintf(&b, "%s %v %s dedup=%v batched=%v tried=%d seconds=%.6g diff=%v outliers=%d/%d/%d/%d diffsec=%.6g\n",
				name, kind, res.GraphPlan.Name, res.OpPlan.Dedup, res.OpPlan.Batched, res.PlansTried, res.Seconds,
				res.Differentiated, cls.Counts[Regular], cls.Counts[Underfill], cls.Counts[Overfill], cls.Counts[Frequent], diffSecs)
		}
	}
	got := b.String()
	const path = "testdata/picks.golden"
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
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
		t.Fatalf("%s differs (go test -run PicksGolden -update rewrites it):\ngot:\n%swant:\n%s", path, got, want)
	}
}
