package bench

import (
	"fmt"

	"wisegraph/internal/dataset"
	"wisegraph/internal/nn"
	"wisegraph/internal/train"
)

// accuracyDataset loads a dataset tuned for learnability (lower feature
// noise, higher homophily), as the accuracy experiments need models that
// actually converge at replica scale.
func (c Config) accuracyDataset(name string) (*dataset.Dataset, error) {
	return dataset.Load(name, dataset.Options{
		Scale: c.Scale, Seed: c.Seed, Homophily: 0.85, FeatureNoise: 0.8, FeatureDim: 32,
	})
}

// Fig14 reproduces the accuracy comparison: GAT and SAGE trained on AR,
// PR and PA, with "DGL" (reference execution) and "Our" (same training,
// final accuracy evaluated through the gTask execution path) — parity
// within 1% is the claim under test.
func Fig14(cfg Config) (*Table, error) {
	t := &Table{
		ID:     "fig14",
		Title:  "test accuracy: DGL (reference) vs WiseGraph (gTask execution)",
		Header: []string{"model", "dataset", "DGL", "Our", "delta"},
	}
	datasets := []string{"AR", "PR", "PA"}
	models := []nn.ModelKind{nn.GAT, nn.SAGE}
	if cfg.Quick {
		datasets = []string{"AR"}
		models = []nn.ModelKind{nn.SAGE}
	}
	for _, kind := range models {
		for _, dsName := range datasets {
			ds, err := cfg.accuracyDataset(dsName)
			if err != nil {
				return nil, err
			}
			tr, err := train.NewFullGraph(ds, nn.Config{
				Kind: kind, Hidden: 32, Layers: 2, Heads: 4, Seed: cfg.Seed + 7,
			}, 0.01)
			if err != nil {
				return nil, err
			}
			tr.Run(cfg.epochs())
			ref := tr.Model.Accuracy(tr.GC, ds.Features, ds.Labels, ds.TestMask)
			res := tr.Tune(spec())
			ours, err := tr.GTaskTestAccuracy(res)
			if err != nil {
				return nil, err
			}
			t.AddRow(kind.String(), dsName,
				fmt.Sprintf("%.3f", ref), fmt.Sprintf("%.3f", ours),
				fmt.Sprintf("%+.4f", ours-ref))
		}
	}
	t.Notes = append(t.Notes, "paper: accuracy difference within 1% on all OGB datasets; here the executions share numerics so the delta is float noise")
	return t, nil
}

// Fig14b produces the accuracy curve: SAGE on AR over the training run
// (the paper's 100-epoch curve).
func Fig14b(cfg Config) (*Table, error) {
	ds, err := cfg.accuracyDataset("AR")
	if err != nil {
		return nil, err
	}
	tr, err := train.NewFullGraph(ds, nn.Config{Kind: nn.SAGE, Hidden: 32, Layers: 2, Seed: cfg.Seed + 9}, 0.01)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "fig14b",
		Title:  "accuracy curve: SAGE on AR",
		Header: []string{"epoch", "loss", "val-acc", "test-acc"},
	}
	for _, st := range tr.Run(cfg.epochs()) {
		t.AddRow(fmt.Sprintf("%d", st.Epoch), fmt.Sprintf("%.4f", st.Loss),
			fmt.Sprintf("%.3f", st.ValAcc), fmt.Sprintf("%.3f", st.TestAcc))
	}
	return t, nil
}
