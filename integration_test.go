package wisegraph

import (
	"bytes"
	"math"
	"testing"

	"wisegraph/internal/core"
	"wisegraph/internal/joint"
)

// TestEndToEndPipeline walks the full user journey: load a dataset, train
// it, evaluate metrics, run the joint optimization, verify
// gTask-execution accuracy parity, serialize the plan, reload it, and
// reuse it on fresh sampled subgraphs.
func TestEndToEndPipeline(t *testing.T) {
	ds, err := LoadDataset("AR", DatasetOptions{
		Scale: 400, FeatureDim: 24, Seed: 77, Homophily: 0.85, FeatureNoise: 0.8,
	})
	if err != nil {
		t.Fatal(err)
	}

	// 1. Train with dropout.
	tr, err := NewTrainer(ds, ModelConfig{
		Kind: SAGE, Hidden: 24, Layers: 2, Dropout: 0.1, Seed: 77,
	}, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	stats := tr.Run(30)
	final := stats[len(stats)-1]
	if final.TestAcc < 0.5 {
		t.Fatalf("test accuracy %.3f too low after %d epochs", final.TestAcc, len(stats))
	}

	// 2. Full metrics.
	m, err := tr.Metrics(ds.TestMask)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Accuracy-final.TestAcc) > 1e-9 {
		t.Fatalf("metrics accuracy %.4f vs epoch accuracy %.4f", m.Accuracy, final.TestAcc)
	}
	if m.MacroF1 <= 0 {
		t.Fatal("macro F1 must be positive after training")
	}

	// 3. Joint optimization + gTask execution parity.
	plan := tr.Tune(A100())
	gtAcc, err := tr.GTaskTestAccuracy(plan)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(gtAcc-final.TestAcc) > 0.01 {
		t.Fatalf("parity violated: gTask %.4f vs reference %.4f", gtAcc, final.TestAcc)
	}

	// 4. Checkpoint round trip preserves predictions.
	var ckpt bytes.Buffer
	if err := tr.Model.SaveCheckpoint(&ckpt); err != nil {
		t.Fatal(err)
	}
	tr2, _ := NewTrainer(ds, ModelConfig{Kind: SAGE, Hidden: 24, Layers: 2, Dropout: 0.1, Seed: 1234}, 0.02)
	if err := tr2.Model.LoadCheckpoint(bytes.NewReader(ckpt.Bytes())); err != nil {
		t.Fatal(err)
	}
	m2, _ := tr2.Metrics(ds.TestMask)
	if math.Abs(m2.Accuracy-m.Accuracy) > 1e-9 {
		t.Fatalf("checkpoint changed accuracy: %.4f vs %.4f", m2.Accuracy, m.Accuracy)
	}

	// 5. Plan serialization round trip and reuse on sampled subgraphs.
	data, err := plan.MarshalPlan()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := joint.UnmarshalPlan(data)
	if err != nil {
		t.Fatal(err)
	}
	gp := loaded.GraphPlan
	if loaded.Kind != SAGE || gp.Name != plan.GraphPlan.Name || loaded.OpPlan != plan.OpPlan {
		t.Fatalf("plan round trip mismatch: %v %v %v", loaded.Kind, gp, loaded.OpPlan)
	}
	st, err := NewSampledTrainer(ds, ModelConfig{Kind: SAGE, Hidden: 24, Layers: 2, Seed: 78}, 0.01, []int{5, 5}, 16, 79)
	if err != nil {
		t.Fatal(err)
	}
	sub := st.NextBatch()
	part := core.PartitionGraph(sub.Graph, gp, []core.Attr{core.AttrSrcID, core.AttrDstID, core.AttrEdgeType, core.AttrDstDegree})
	if err := part.Validate(); err != nil {
		t.Fatal(err)
	}
	if part.Plan.Name != plan.GraphPlan.Name {
		t.Fatal("reloaded plan does not apply")
	}
}
