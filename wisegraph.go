// Package wisegraph is the public API of the WiseGraph reproduction — a
// GNN training framework that jointly partitions graph data and GNN
// operations through the gTask abstraction (Huang et al., EuroSys 2024).
//
// The typical flow mirrors the paper's end-to-end workflow (Figure 4):
//
//	ds, _ := wisegraph.LoadDataset("AR", wisegraph.DatasetOptions{})
//	tr, _ := wisegraph.NewTrainer(ds, wisegraph.ModelConfig{Kind: wisegraph.SAGE, Hidden: 64, Layers: 3}, 0.01)
//	plan := tr.Tune(wisegraph.A100())        // joint optimization: graph + operation partition
//	stats := tr.Run(100)                     // full-graph training
//	acc, _ := tr.GTaskTestAccuracy(plan)     // evaluate through the gTask executor
//
// The heavy lifting lives in internal packages: internal/core (gTasks and
// the greedy partitioner), internal/opt (DFG transformations),
// internal/kernels (batched micro-kernel execution + cost model),
// internal/joint (outlier scheduling and the plan search), internal/dist
// (multi-device placement) and internal/bench (every paper table/figure).
package wisegraph

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"

	"wisegraph/internal/bench"
	"wisegraph/internal/core"
	"wisegraph/internal/dataset"
	"wisegraph/internal/device"
	"wisegraph/internal/dist"
	"wisegraph/internal/graph"
	"wisegraph/internal/joint"
	"wisegraph/internal/nn"
	"wisegraph/internal/serve"
	"wisegraph/internal/train"
)

// ModelKind identifies one of the five evaluated GNN models.
type ModelKind = nn.ModelKind

// The evaluated models (paper §7.1).
const (
	GCN      = nn.GCN
	SAGE     = nn.SAGE
	SAGELSTM = nn.SAGELSTM
	GAT      = nn.GAT
	RGCN     = nn.RGCN
)

// ParseModel resolves a model name ("GCN", "SAGE", "SAGE-LSTM", "GAT",
// "RGCN").
func ParseModel(name string) (ModelKind, error) { return nn.ParseModel(name) }

// Graph is a directed multigraph in COO form (see internal/graph).
type Graph = graph.Graph

// Dataset bundles a graph with features, labels and splits.
type Dataset = dataset.Dataset

// DatasetOptions control dataset materialization.
type DatasetOptions = dataset.Options

// LoadDataset materializes one of the paper's Table 1 datasets (AR, PR,
// RE, PA-S, FS-S, PA, FS) as a scaled synthetic replica.
func LoadDataset(name string, opts DatasetOptions) (*Dataset, error) {
	return dataset.Load(name, opts)
}

// DatasetNames lists the available datasets.
func DatasetNames() []string {
	names := make([]string, len(dataset.Specs))
	for i, s := range dataset.Specs {
		names[i] = s.Name
	}
	return names
}

// ModelConfig configures a model (see internal/nn.Config).
type ModelConfig = nn.Config

// Model is a GNN model: a stack of graph-convolution layers with
// checkpoint save/load (v2 checkpoints embed the ModelConfig).
type Model = nn.Model

// LoadModelFromCheckpoint reconstructs a model from a v2 checkpoint alone
// (the artifact written by Model.SaveCheckpoint or
// `wisegraph-train -save-checkpoint`).
func LoadModelFromCheckpoint(r io.Reader) (*Model, error) {
	return nn.LoadModelFromCheckpoint(r)
}

// LoadModel builds the model a daemon serves over ds: from a checkpoint
// alone (it carries its own architecture; the arguments are ignored), or
// (empty path) freshly initialized weights of the architecture the
// arguments name — useful for smoke tests and load rigs. One line saying
// which of the two happened is written to log.
func LoadModel(log io.Writer, ds *Dataset, path, kindName string, hidden, layers int, seed uint64) (*Model, error) {
	if path == "" {
		kind, err := ParseModel(kindName)
		if err != nil {
			return nil, err
		}
		m, err := nn.NewModel(ModelConfig{
			Kind: kind, InDim: ds.Dim(), Hidden: hidden, OutDim: ds.Classes(),
			Layers: layers, NumTypes: ds.Graph.NumTypes, Seed: seed,
		})
		if err == nil {
			fmt.Fprintln(log, "warning: no -checkpoint given; serving untrained weights")
		}
		return m, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	m, err := LoadModelFromCheckpoint(f)
	if err != nil {
		return nil, fmt.Errorf("loading %s: %w", path, err)
	}
	fmt.Fprintf(log, "restored v2 checkpoint %s\n", path)
	return m, nil
}

// ParseBytes parses a byte size with an optional binary suffix:
// "1048576", "64KiB"/"64kb", "512MiB"/"512m", "2GiB"/"2g".
func ParseBytes(s string) (int64, error) {
	t := strings.TrimSpace(strings.ToLower(s))
	mult := int64(1)
	for _, u := range []struct {
		suffix string
		mult   int64
	}{
		{"kib", 1 << 10}, {"kb", 1 << 10}, {"k", 1 << 10},
		{"mib", 1 << 20}, {"mb", 1 << 20}, {"m", 1 << 20},
		{"gib", 1 << 30}, {"gb", 1 << 30}, {"g", 1 << 30},
	} {
		if strings.HasSuffix(t, u.suffix) {
			t, mult = strings.TrimSuffix(t, u.suffix), u.mult
			break
		}
	}
	v, err := strconv.ParseInt(strings.TrimSpace(t), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad byte size %q", s)
	}
	return v * mult, nil
}

// ParseFanouts parses comma-separated per-layer sampling fan-outs
// ("20,15,10"); every entry must be a positive integer.
func ParseFanouts(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v < 1 {
			return nil, fmt.Errorf("bad fanout %q", p)
		}
		out = append(out, v)
	}
	return out, nil
}

// Trainer trains a model on a full graph.
type Trainer = train.FullGraph

// NewTrainer builds a full-graph trainer; InDim/OutDim/NumTypes default
// from the dataset.
func NewTrainer(ds *Dataset, cfg ModelConfig, lr float64) (*Trainer, error) {
	return train.NewFullGraph(ds, cfg, lr)
}

// SampledTrainer trains on neighbor-sampled mini-batches.
type SampledTrainer = train.Sampled

// NewSampledTrainer builds a sampled-graph trainer with the given fan-outs
// (the paper uses 20-15-10) and batch size.
func NewSampledTrainer(ds *Dataset, cfg ModelConfig, lr float64, fanouts []int, batch int, seed uint64) (*SampledTrainer, error) {
	return train.NewSampled(ds, cfg, lr, fanouts, batch, seed)
}

// DeviceSpec describes the simulated accelerator.
type DeviceSpec = device.Spec

// A100 returns the paper's evaluation GPU model.
func A100() DeviceSpec { return device.A100() }

// ExecutionPlan is the outcome of joint optimization: the selected graph
// partition plan, operation partition plan, outlier classification and
// search trace. Its Partition holds the statistics the search's cost
// model reads (see joint.Result.Partition); Partition(g, plan.GraphPlan)
// gives every row.
type ExecutionPlan = joint.Result

// Optimize runs the joint search (paper §6) for a model over a graph:
// it enumerates graph partition plans from the model's indexing
// attributes, tunes operation partition plans per candidate using the
// gTask-level data patterns, and schedules outliers differentially.
func Optimize(g *Graph, kind ModelKind, hidden, numTypes int, spec DeviceSpec) *ExecutionPlan {
	return joint.Search(g, kind, hidden, hidden, numTypes, joint.Options{Spec: spec})
}

// GraphPlan is a named set of gTask restrictions.
type GraphPlan = core.GraphPlan

// Partition applies a graph partition plan, producing gTasks with
// per-task unique-value statistics.
func Partition(g *Graph, plan GraphPlan) *core.Partition {
	return core.PartitionGraph(g, plan, []core.Attr{
		core.AttrSrcID, core.AttrDstID, core.AttrEdgeType, core.AttrDstDegree,
	})
}

// VertexCentricPlan and EdgeCentricPlan are the classic partitions,
// expressible as special cases of gTask restrictions (paper Figure 7).
func VertexCentricPlan() GraphPlan { return core.VertexCentric() }

// EdgeCentricPlan is uniq(edge-id)=1.
func EdgeCentricPlan() GraphPlan { return core.EdgeCentric() }

// ServeOptions tune the online inference engine (see internal/serve).
type ServeOptions = serve.Options

// InferenceEngine answers node-classification queries with dynamic
// micro-batching, admission control and graceful drain.
type InferenceEngine = serve.Engine

// NewInferenceEngine freezes an inference context (graph CSR, one-shot
// tuned joint plan, per-worker partitioners) and starts the serving worker
// pool. The workers read m in place: do not write to it while it is served.
func NewInferenceEngine(ds *Dataset, m *Model, opts ServeOptions) (*InferenceEngine, error) {
	return serve.NewEngine(ds, m, opts)
}

// NewServeHandler exposes an inference engine over HTTP
// (/predict, /healthz, /statsz).
func NewServeHandler(e *InferenceEngine) http.Handler {
	return serve.NewHandler(e)
}

// Cluster models a multi-device setup.
type Cluster = dist.Cluster

// NewCluster returns an n-device cluster with the paper's PCIe-4.0
// interconnect.
func NewCluster(n int) Cluster { return dist.NewCluster(n) }

// BenchConfig configures experiment reproduction.
type BenchConfig = bench.Config

// BenchTable is a printable experiment result.
type BenchTable = bench.Table

// RunExperiment reproduces one paper table or figure by id (table1,
// fig3a, fig3b, fig13, table2, fig14, fig14b, fig15, fig16, fig17, fig18,
// fig19, fig20, fig21, table3).
func RunExperiment(id string, cfg BenchConfig) (*BenchTable, error) {
	e, err := bench.Find(id)
	if err != nil {
		return nil, err
	}
	return e.Run(cfg)
}

// ExperimentIDs lists the reproducible experiments.
func ExperimentIDs() []string {
	var ids []string
	for _, e := range bench.Experiments() {
		ids = append(ids, e.ID)
	}
	return ids
}

// WriteExperiment runs an experiment and renders it to w.
func WriteExperiment(w io.Writer, id string, cfg BenchConfig) error {
	t, err := RunExperiment(id, cfg)
	if err != nil {
		return err
	}
	t.Fprint(w)
	return nil
}
