package train

import (
	"math"
	"testing"

	"wisegraph/internal/dataset"
	"wisegraph/internal/device"
	"wisegraph/internal/nn"
)

func tinyDataset(t *testing.T) *dataset.Dataset {
	t.Helper()
	ds, err := dataset.Load("AR", dataset.Options{
		Scale: 400, FeatureDim: 16, Seed: 1, Homophily: 0.85, FeatureNoise: 0.8,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestFullGraphTrainingImprovesAccuracy(t *testing.T) {
	ds := tinyDataset(t)
	tr, err := NewFullGraph(ds, nn.Config{Kind: nn.SAGE, Hidden: 16, Layers: 2, Seed: 2}, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	stats := tr.Run(25)
	if len(stats) != 25 {
		t.Fatalf("got %d epochs", len(stats))
	}
	first, last := stats[0], stats[len(stats)-1]
	if last.Loss >= first.Loss {
		t.Fatalf("loss did not improve: %.4f → %.4f", first.Loss, last.Loss)
	}
	if last.ValAcc <= first.ValAcc {
		t.Fatalf("val accuracy did not improve: %.3f → %.3f", first.ValAcc, last.ValAcc)
	}
	if last.TestAcc < 0.3 {
		t.Fatalf("test accuracy %.3f too low after 25 epochs", last.TestAcc)
	}
}

func TestGTaskAccuracyParity(t *testing.T) {
	// Figure 14: WiseGraph's execution must not change accuracy.
	ds := tinyDataset(t)
	tr, err := NewFullGraph(ds, nn.Config{Kind: nn.GCN, Hidden: 16, Layers: 2, Seed: 3}, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	tr.Run(15)
	ref := tr.Model.Accuracy(tr.GC, ds.Features, ds.Labels, ds.TestMask)
	res := tr.Tune(device.A100())
	gtask, err := tr.GTaskTestAccuracy(res)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ref-gtask) > 0.01 {
		t.Fatalf("accuracy parity violated: reference %.4f vs gTask %.4f", ref, gtask)
	}
}

func TestSampledTrainingRuns(t *testing.T) {
	ds := tinyDataset(t)
	tr, err := NewSampled(ds, nn.Config{Kind: nn.SAGE, Hidden: 16, Layers: 2, Seed: 4}, 0.01, []int{5, 5}, 16, 9)
	if err != nil {
		t.Fatal(err)
	}
	first := tr.Iteration()
	var last float64
	for i := 0; i < 20; i++ {
		last = tr.Iteration()
	}
	if math.IsNaN(last) || last <= 0 {
		t.Fatalf("loss = %v", last)
	}
	if last > first*1.5 {
		t.Fatalf("sampled loss diverged: %.4f → %.4f", first, last)
	}
}

func TestSampledBatchesCycleThroughSeeds(t *testing.T) {
	ds := tinyDataset(t)
	tr, _ := NewSampled(ds, nn.Config{Kind: nn.GCN, Hidden: 8, Layers: 2, Seed: 5}, 0.01, []int{3}, 8, 10)
	b1 := tr.NextBatch()
	b2 := tr.NextBatch()
	if b1.NumSeeds != 8 || b2.NumSeeds != 8 {
		t.Fatalf("batch seed counts: %d %d", b1.NumSeeds, b2.NumSeeds)
	}
	// different cursor → different seed sets
	if b1.Vertices[0] == b2.Vertices[0] {
		t.Fatal("cursor did not advance")
	}
}

func TestTunePlansAndReuse(t *testing.T) {
	ds := tinyDataset(t)
	tr, _ := NewSampled(ds, nn.Config{Kind: nn.GCN, Hidden: 16, Layers: 2, Seed: 6}, 0.01, []int{5, 5}, 16, 11)
	res := tr.TunePlans(device.A100(), 2)
	if res == nil || res.Seconds <= 0 {
		t.Fatal("tuning produced no result")
	}
	// reuse on a fresh subgraph: partition valid, same plan
	sub := tr.NextBatch()
	part := ReusePlan(res, sub.Graph)
	if err := part.Validate(); err != nil {
		t.Fatal(err)
	}
	if part.Plan.Name != res.GraphPlan.Name {
		t.Fatalf("reused plan %q differs from tuned %q", part.Plan.Name, res.GraphPlan.Name)
	}
}

func TestOverlapModel(t *testing.T) {
	o := OverlapModel{SampleSeconds: 60, PartitionSeconds: 60, EpochSeconds: 10}
	s1, sp1, ep := o.At(1)
	if s1 != 60 || sp1 != 120 || ep != 10 {
		t.Fatalf("single thread: %v %v %v", s1, sp1, ep)
	}
	// 12 threads: 120/12 = 10 ≤ epoch → fully overlapped
	if got := o.FullyOverlappedAt(24); got != 12 {
		t.Fatalf("fully overlapped at %d, want 12", got)
	}
	// impossible case
	o2 := OverlapModel{SampleSeconds: 1e6, PartitionSeconds: 0, EpochSeconds: 0.001}
	if o2.FullyOverlappedAt(8) != 0 {
		t.Fatal("should report never overlapped")
	}
}
