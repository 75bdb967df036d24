package train

import (
	"math"
	"slices"
	"testing"

	"wisegraph/internal/device"
	"wisegraph/internal/nn"
)

func pipelineSetup(t *testing.T) (*Sampled, *FullGraph) {
	t.Helper()
	ds := tinyDataset(t)
	s, err := NewSampled(ds, nn.Config{Kind: nn.SAGE, Hidden: 16, Layers: 2, Seed: 21}, 0.01, []int{5, 5}, 16, 22)
	if err != nil {
		t.Fatal(err)
	}
	return s, nil
}

func TestPipelineProducesValidBatches(t *testing.T) {
	s, _ := pipelineSetup(t)
	plan := s.TunePlans(device.A100(), 1)
	p := NewPipeline(s, plan, 3, 6)
	defer p.Close()
	for i := 0; i < 10; i++ {
		b := p.Next()
		if b == nil {
			t.Fatal("pipeline returned nil while open")
		}
		if b.Sub.NumSeeds != 16 {
			t.Fatalf("batch %d: %d seeds", i, b.Sub.NumSeeds)
		}
		if err := b.Sub.Graph.Validate(); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		if err := b.Part.Validate(); err != nil {
			t.Fatalf("batch %d partition: %v", i, err)
		}
		if b.Part.Plan.Name != plan.GraphPlan.Name {
			t.Fatalf("batch %d: plan %q, want %q", i, b.Part.Plan.Name, plan.GraphPlan.Name)
		}
		if b.X.Rows() != b.Sub.Graph.NumVertices || len(b.Labels) != b.Sub.Graph.NumVertices {
			t.Fatalf("batch %d: misaligned features/labels", i)
		}
	}
}

func TestPipelineCloseTerminates(t *testing.T) {
	s, _ := pipelineSetup(t)
	plan := s.TunePlans(device.A100(), 1)
	p := NewPipeline(s, plan, 4, 4)
	_ = p.Next()
	p.Close() // must not deadlock even with workers blocked on a full queue
	p.Close() // idempotent
}

func TestTrainPipelinedConverges(t *testing.T) {
	s, _ := pipelineSetup(t)
	plan := s.TunePlans(device.A100(), 1)
	// 80 iterations sit right on the 10% improvement bar: batch order is
	// timing-dependent across workers, and an unlucky schedule (e.g.
	// under -race on one core) can land just short. 240 steps put the
	// expected improvement well past the threshold for every ordering.
	const iters = 240
	losses := s.TrainPipelined(plan, 3, iters)
	if len(losses) != iters {
		t.Fatalf("got %d losses", len(losses))
	}
	for _, l := range losses {
		if math.IsNaN(l) || l <= 0 {
			t.Fatalf("bad loss %v", l)
		}
	}
	// batch order is nondeterministic across workers, so compare wide
	// windows: mean of the last 30 must undercut the first 30 clearly
	head, tail := 0.0, 0.0
	for i := 0; i < 30; i++ {
		head += losses[i]
		tail += losses[len(losses)-1-i]
	}
	if tail >= head*0.9 {
		t.Fatalf("pipelined training did not improve: head %.3f tail %.3f", head/30, tail/30)
	}
}

// TestTrainSerialTrainsEachBatchOnce holds TrainSerial to Iteration: each
// step samples one batch and trains on it, so the losses match bit for
// bit (the partition does not change training) and both samplers stop at
// the same next batch.
func TestTrainSerialTrainsEachBatchOnce(t *testing.T) {
	serial, _ := pipelineSetup(t)
	inline, _ := pipelineSetup(t)
	plan := serial.TunePlans(device.A100(), 1)
	inline.NextBatch() // the batch TunePlans drew
	const iters = 4
	losses := serial.TrainSerial(plan, iters)
	if len(losses) != iters {
		t.Fatalf("got %d losses, want %d", len(losses), iters)
	}
	for i, l := range losses {
		if want := inline.Iteration(); math.Float64bits(l) != math.Float64bits(want) {
			t.Fatalf("step %d: TrainSerial loss %v, Iteration %v", i, l, want)
		}
	}
	a, b := serial.NextBatch(), inline.NextBatch()
	if a.NumSeeds != b.NumSeeds || !slices.Equal(a.Graph.Src, b.Graph.Src) || !slices.Equal(a.Graph.Dst, b.Graph.Dst) {
		t.Fatal("TrainSerial left its sampler at a different batch than Iteration")
	}
}

func TestPipelineWorkersCoverDistinctSeeds(t *testing.T) {
	s, _ := pipelineSetup(t)
	plan := s.TunePlans(device.A100(), 1)
	p := NewPipeline(s, plan, 2, 4)
	defer p.Close()
	// two consecutive batches should not target an identical seed set
	b1 := p.Next()
	b2 := p.Next()
	same := true
	for i := 0; i < b1.Sub.NumSeeds && i < b2.Sub.NumSeeds; i++ {
		if b1.Sub.Vertices[i] != b2.Sub.Vertices[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("workers produced identical seed batches")
	}
}
