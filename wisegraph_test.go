package wisegraph

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestPublicAPIDatasetAndTraining(t *testing.T) {
	names := DatasetNames()
	if len(names) != 7 {
		t.Fatalf("expected 7 datasets, got %v", names)
	}
	ds, err := LoadDataset("AR", DatasetOptions{Scale: 800, FeatureDim: 16, Seed: 1, Homophily: 0.85, FeatureNoise: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewTrainer(ds, ModelConfig{Kind: SAGE, Hidden: 16, Layers: 2, Seed: 1}, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	stats := tr.Run(10)
	if stats[9].Loss >= stats[0].Loss {
		t.Fatalf("loss did not drop: %.4f → %.4f", stats[0].Loss, stats[9].Loss)
	}
}

func TestPublicAPIOptimizeAndPartition(t *testing.T) {
	ds, err := LoadDataset("AR", DatasetOptions{Scale: 400, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	plan := Optimize(ds.Graph, RGCN, 32, ds.Graph.NumTypes, A100())
	if plan.Seconds <= 0 || plan.Partition == nil {
		t.Fatalf("optimize produced empty plan: %+v", plan)
	}
	part := Partition(ds.Graph, plan.GraphPlan)
	if err := part.Validate(); err != nil {
		t.Fatal(err)
	}
	vc := Partition(ds.Graph, VertexCentricPlan())
	if vc.NumTasks() == 0 {
		t.Fatal("vertex-centric produced no tasks")
	}
	ec := Partition(ds.Graph, EdgeCentricPlan())
	if ec.NumTasks() != ds.Graph.NumEdges() {
		t.Fatal("edge-centric must have one task per edge")
	}
}

func TestPublicAPIParseModel(t *testing.T) {
	for _, name := range []string{"GCN", "SAGE", "SAGE-LSTM", "GAT", "RGCN"} {
		if _, err := ParseModel(name); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if _, err := ParseModel("nope"); err == nil {
		t.Fatal("expected error")
	}
}

func TestPublicAPIExperiments(t *testing.T) {
	ids := ExperimentIDs()
	if len(ids) != 20 {
		t.Fatalf("expected 20 experiments (15 paper + 5 extensions), got %d: %v", len(ids), ids)
	}
	var sb strings.Builder
	if err := WriteExperiment(&sb, "table1", BenchConfig{Quick: true, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "table1") {
		t.Fatalf("unexpected output: %q", sb.String())
	}
	if _, err := RunExperiment("bogus", BenchConfig{}); err == nil {
		t.Fatal("expected error for unknown experiment")
	}
}

func TestPublicAPICluster(t *testing.T) {
	c := NewCluster(4)
	if c.N != 4 || c.Link.Bandwidth <= 0 {
		t.Fatalf("cluster misconfigured: %+v", c)
	}
}

// TestLoadModel covers the two ways a daemon gets its model — a v2
// checkpoint alone, or no checkpoint — and the error for a file that is
// not a v2 checkpoint, which is the checkpoint reader's own.
func TestLoadModel(t *testing.T) {
	ds, err := LoadDataset("AR", DatasetOptions{Scale: 800, FeatureDim: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	saved, err := NewTrainer(ds, ModelConfig{Kind: SAGE, Hidden: 16, Layers: 2, Seed: 5}, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	var v2 bytes.Buffer
	if err := saved.Model.SaveCheckpoint(&v2); err != nil {
		t.Fatal(err)
	}
	// A v1 file is a v2 file with version 1 and without the 44-byte
	// Config block that follows the 8-byte header.
	v1 := append([]byte{}, v2.Bytes()[:4]...)
	v1 = append(v1, 1, 0, 0, 0)
	v1 = append(v1, v2.Bytes()[8+44:]...)
	// Model kind, the first Config field, set to one that does not exist.
	badKind := append([]byte{}, v2.Bytes()...)
	badKind[8] = 0xee
	dir := t.TempDir()
	write := func(name string, data []byte) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}

	for _, tc := range []struct {
		name, path, kind string
		hidden, layers   int
		wantLog, wantErr string
		savedWeights     bool
	}{
		// The architecture arguments are wrong on purpose: a v2 file
		// carries its own.
		{name: "v2-alone", path: write("v2.ckpt", v2.Bytes()), kind: "GCN", hidden: 8, layers: 1,
			wantLog: "restored v2 checkpoint", savedWeights: true},
		{name: "v1-plus-flags", path: write("v1.ckpt", v1), kind: "SAGE", hidden: 16, layers: 2,
			wantErr: "unsupported checkpoint version 1"},
		{name: "no-checkpoint", kind: "SAGE", hidden: 16, layers: 2,
			wantLog: "warning: no -checkpoint given; serving untrained weights"},
		{name: "corrupt", path: write("junk.ckpt", []byte("not a checkpoint at all")), kind: "SAGE", hidden: 16, layers: 2,
			wantErr: "junk.ckpt: nn: not a checkpoint"},
		// The checkpoint's own error, not one from a second parse.
		{name: "v2-corrupt-config", path: write("badkind.ckpt", badKind), kind: "SAGE", hidden: 16, layers: 2,
			wantErr: "unknown model kind 238"},
		{name: "missing-file", path: filepath.Join(dir, "absent.ckpt"), kind: "SAGE", hidden: 16, layers: 2,
			wantErr: "absent.ckpt"},
		{name: "unknown-model", kind: "MLP", hidden: 16, layers: 2, wantErr: "MLP"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var log bytes.Buffer
			m, err := LoadModel(&log, ds, tc.path, tc.kind, tc.hidden, tc.layers, 9)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("error %v, want one naming %q", err, tc.wantErr)
				}
				if log.Len() != 0 {
					t.Fatalf("a failed load logged %q", log.String())
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(log.String(), tc.wantLog) {
				t.Fatalf("log %q, want %q", log.String(), tc.wantLog)
			}
			if m.Cfg.Kind != SAGE || m.Cfg.Hidden != 16 || m.Cfg.Layers != 2 || m.Cfg.InDim != ds.Dim() || m.Cfg.OutDim != ds.Classes() {
				t.Fatalf("model config %+v", m.Cfg)
			}
			same := true
			for i, p := range m.Params() {
				same = same && reflect.DeepEqual(p.Value.Data(), saved.Model.Params()[i].Value.Data())
			}
			if same != tc.savedWeights {
				t.Fatalf("weights equal the saved model's: %v, want %v", same, tc.savedWeights)
			}
		})
	}
}

func TestParseBytes(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want int64
		ok   bool
	}{
		{"0", 0, true},
		{"1048576", 1 << 20, true},
		{"64KiB", 64 << 10, true},
		{"64kb", 64 << 10, true},
		{"64k", 64 << 10, true},
		{" 512 MiB ", 512 << 20, true},
		{"2g", 2 << 30, true},
		{"junk", 0, false},
		{"", 0, false},
		{"MiB", 0, false},
		{"1.5g", 0, false},
	} {
		got, err := ParseBytes(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParseBytes(%q) = %d, %v; want %d, ok=%v", tc.in, got, err, tc.want, tc.ok)
		}
	}
}

func TestParseFanouts(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want []int
	}{
		{"10,10,10", []int{10, 10, 10}},
		{" 20, 15 ,10", []int{20, 15, 10}},
		{"0", nil},
		{"a", nil},
		{"10,,10", nil},
		{"-3", nil},
		{"", nil},
	} {
		got, err := ParseFanouts(tc.in)
		if (err == nil) != (tc.want != nil) || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("ParseFanouts(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
}
