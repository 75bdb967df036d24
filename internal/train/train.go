// Package train provides the end-to-end training loops: full-graph
// training (the paper's primary target), sampled-graph training with
// one-shot plan tuning and reuse (§6.3 "working with sampled graph
// training"), and the accuracy-parity evaluation of Figure 14.
package train

import (
	"fmt"
	"time"

	"wisegraph/internal/core"
	"wisegraph/internal/dataset"
	"wisegraph/internal/device"
	"wisegraph/internal/exec"
	"wisegraph/internal/graph"
	"wisegraph/internal/joint"
	"wisegraph/internal/kernels"
	"wisegraph/internal/nn"
	"wisegraph/internal/obs"
	"wisegraph/internal/tensor"
)

// EpochStats records one epoch of training.
type EpochStats struct {
	Epoch    int
	Loss     float64
	ValAcc   float64
	TestAcc  float64
	Duration time.Duration
}

// FullGraph trains a model on an entire dataset.
type FullGraph struct {
	DS    *dataset.Dataset
	Model *nn.Model
	GC    *nn.GraphCtx
	Opt   *nn.Adam
}

// NewFullGraph builds a trainer. cfg.InDim/OutDim are filled from the
// dataset if zero.
func NewFullGraph(ds *dataset.Dataset, cfg nn.Config, lr float64) (*FullGraph, error) {
	if cfg.InDim == 0 {
		cfg.InDim = ds.Dim()
	}
	if cfg.OutDim == 0 {
		cfg.OutDim = ds.Classes()
	}
	if cfg.NumTypes == 0 {
		cfg.NumTypes = ds.Graph.NumTypes
	}
	m, err := nn.NewModel(cfg)
	if err != nil {
		return nil, err
	}
	return &FullGraph{
		DS:    ds,
		Model: m,
		GC:    nn.NewGraphCtx(ds.Graph),
		Opt:   nn.NewAdam(lr, m.Params()),
	}, nil
}

// Epoch runs one full-graph training epoch and returns the loss.
func (t *FullGraph) Epoch() float64 {
	id := obs.NewID()
	step := obs.Begin(obs.StageStep, id)
	sp := obs.Begin(obs.StageExec, id)
	loss := t.Model.TrainStep(t.GC, t.DS.Features, t.DS.Labels, t.DS.TrainMask, t.Opt)
	sp.End()
	step.End()
	return loss
}

// Run trains for epochs epochs, evaluating validation/test accuracy each
// epoch (the Figure 14b curve).
func (t *FullGraph) Run(epochs int) []EpochStats {
	out := make([]EpochStats, 0, epochs)
	for ep := 0; ep < epochs; ep++ {
		start := time.Now()
		loss := t.Epoch()
		st := EpochStats{
			Epoch:    ep,
			Loss:     loss,
			ValAcc:   t.Model.Accuracy(t.GC, t.DS.Features, t.DS.Labels, t.DS.ValMask),
			TestAcc:  t.Model.Accuracy(t.GC, t.DS.Features, t.DS.Labels, t.DS.TestMask),
			Duration: time.Since(start),
		}
		out = append(out, st)
	}
	return out
}

// GTaskTestAccuracy evaluates test accuracy with the logits produced by
// the gTask execution path instead of the reference forward — the
// accuracy-parity check: WiseGraph's optimizations must not change
// predictions (paper Figure 14, "accuracy difference within 1%"). Here the
// gTask logits are the model's own forward with each destination's
// in-edges in the searched partition's order: bit for bit Accuracy's
// logits when that order is edge-id order, else the same sums rounded in
// another order.
func (t *FullGraph) GTaskTestAccuracy(res *joint.Result) (float64, error) {
	ctx := exec.NewCtx(device.New(device.A100()))
	part := res.Partition
	if part.Graph != t.DS.Graph {
		part = core.PartitionGraph(t.DS.Graph, res.GraphPlan, searchAttrs)
	}
	logits, err := kernels.RunModel(ctx, t.GC, t.Model, t.DS.Features, part, res.OpPlan)
	if err != nil {
		return 0, err
	}
	pred := tensor.ArgMaxRows(logits)
	correct := 0
	for _, v := range t.DS.TestMask {
		if pred[v] == t.DS.Labels[v] {
			correct++
		}
	}
	if len(t.DS.TestMask) == 0 {
		return 0, fmt.Errorf("train: empty test mask")
	}
	return float64(correct) / float64(len(t.DS.TestMask)), nil
}

var searchAttrs = []core.Attr{core.AttrSrcID, core.AttrDstID, core.AttrEdgeType, core.AttrDstDegree}

// reuseAttrs are the per-task statistics a reused plan's executor reads
// (kernels.StatsOf): a restricted attribute is tracked whatever the list.
var reuseAttrs = []core.Attr{core.AttrSrcID, core.AttrDstID, core.AttrEdgeType}

// Tune runs the joint optimization for this trainer's model and graph.
func (t *FullGraph) Tune(spec device.Spec) *joint.Result {
	hidden := t.Model.Cfg.Hidden
	return joint.Search(t.DS.Graph, t.Model.Cfg.Kind, hidden, hidden, t.Model.Cfg.NumTypes, joint.Options{Spec: spec})
}

// Sampled trains on neighbor-sampled subgraphs (mini-batch training).
type Sampled struct {
	DS        *dataset.Dataset
	Model     *nn.Model
	Opt       *nn.Adam
	Fanouts   []int
	BatchSize int

	csr    *graph.CSR
	rng    *tensor.RNG
	cursor int
}

// NewSampled builds a sampled-graph trainer with the paper's 20-15-10
// style fan-out (configurable).
func NewSampled(ds *dataset.Dataset, cfg nn.Config, lr float64, fanouts []int, batch int, seed uint64) (*Sampled, error) {
	if cfg.InDim == 0 {
		cfg.InDim = ds.Dim()
	}
	if cfg.OutDim == 0 {
		cfg.OutDim = ds.Classes()
	}
	if cfg.NumTypes == 0 {
		cfg.NumTypes = ds.Graph.NumTypes
	}
	m, err := nn.NewModel(cfg)
	if err != nil {
		return nil, err
	}
	return &Sampled{
		DS:        ds,
		Model:     m,
		Opt:       nn.NewAdam(lr, m.Params()),
		Fanouts:   fanouts,
		BatchSize: batch,
		csr:       ds.Graph.BuildCSRByDst(),
		rng:       tensor.NewRNG(seed ^ 0x5a5a),
	}, nil
}

// NextBatch samples the next mini-batch subgraph over training seeds.
func (s *Sampled) NextBatch() *graph.Subgraph {
	seeds := make([]int32, 0, s.BatchSize)
	for len(seeds) < s.BatchSize {
		seeds = append(seeds, s.DS.TrainMask[s.cursor])
		s.cursor = (s.cursor + 1) % len(s.DS.TrainMask)
	}
	return graph.NeighborSample(s.DS.Graph, s.csr, seeds, s.Fanouts, s.rng)
}

// Iteration samples a subgraph and runs one training step on it,
// returning the loss over the seed vertices.
func (s *Sampled) Iteration() float64 { return s.iterate(nil, nil) }

// TrainSerial runs iters training steps, each sampling a batch,
// partitioning it under plan and training on it inline: TrainPipelined's
// work with nothing overlapped. It returns the per-iteration losses.
func (s *Sampled) TrainSerial(plan *joint.Result, iters int) []float64 {
	pt := core.NewPartitioner()
	defer pt.Release()
	losses := make([]float64, 0, iters)
	for i := 0; i < iters; i++ {
		losses = append(losses, s.iterate(pt, plan))
	}
	return losses
}

// iterate samples the next batch, prepares it (partitioned through pt
// under plan when plan is set) and trains on it, all under one step span.
func (s *Sampled) iterate(pt *core.Partitioner, plan *joint.Result) float64 {
	id := obs.NewID()
	st := obs.Begin(obs.StageStep, id)
	defer st.End()
	sp := obs.Begin(obs.StageSample, id)
	sub := s.NextBatch()
	sp.End()
	return s.step(id, s.prepare(id, pt, plan, sub))
}

// prepare does a sampled batch's CPU-side work under trace id: the
// partition under plan through pt (none when plan is nil), the seed mask,
// and the features and labels.
func (s *Sampled) prepare(id uint64, pt *core.Partitioner, plan *joint.Result, sub *graph.Subgraph) *PreparedBatch {
	b := &PreparedBatch{Sub: sub, Mask: make([]int32, sub.NumSeeds)}
	if plan != nil {
		sp := obs.Begin(obs.StagePartition, id)
		b.Part = ReusePlanWith(pt, plan, sub.Graph)
		sp.End()
	}
	for i := range b.Mask {
		b.Mask[i] = int32(i)
	}
	sp := obs.Begin(obs.StageCollective, id)
	b.X = sub.GatherFeatures(s.DS.Features)
	b.Labels = sub.GatherLabels(s.DS.Labels)
	sp.End()
	return b
}

// step trains on a prepared batch under trace id and returns its loss:
// the body of every Iteration, TrainSerial and TrainPipelined step.
func (s *Sampled) step(id uint64, b *PreparedBatch) float64 {
	gc := nn.NewGraphCtx(b.Sub.Graph)
	sp := obs.Begin(obs.StageExec, id)
	loss := s.Model.TrainStep(gc, b.X, b.Labels, b.Mask, s.Opt)
	sp.End()
	return loss
}

// TunePlans runs the joint search on a few sampled subgraphs and returns
// the plan of the best-performing one — the one-shot tuning the paper
// then reuses across all iterations (§6.3).
func (s *Sampled) TunePlans(spec device.Spec, subgraphs int) *joint.Result {
	var best *joint.Result
	hidden := s.Model.Cfg.Hidden
	for i := 0; i < subgraphs; i++ {
		sub := s.NextBatch()
		r := joint.Search(sub.Graph, s.Model.Cfg.Kind, hidden, hidden, s.Model.Cfg.NumTypes, joint.Options{Spec: spec})
		if best == nil || r.Seconds < best.Seconds {
			best = r
		}
	}
	return best
}

// ReusePlan applies a previously tuned graph plan to a fresh subgraph
// without searching: O(E) partitioning only, which runs on CPU threads
// overlapped with training (Figure 21b).
func ReusePlan(res *joint.Result, g *graph.Graph) *core.Partition {
	return core.PartitionGraph(g, res.GraphPlan, searchAttrs)
}

// ReusePlanWith is ReusePlan through a caller-owned Partitioner: pipeline
// workers hold one each, so steady-state per-batch partitioning reuses
// the worker's radix buffers and stamp arrays instead of competing over
// the shared pool. It tracks only what the executor reads, so an
// unrestricted degree attribute costs the block nothing.
func ReusePlanWith(pt *core.Partitioner, res *joint.Result, g *graph.Graph) *core.Partition {
	return pt.Partition(g, res.GraphPlan, reuseAttrs)
}

// ReuseRowsWith is ReusePlanWith for a block whose edges its builder laid
// out grouped by destination as rowPtr records, under a plan whose one
// restriction is uniq(dst-id)=K (core.GraphPlan.DstBatch): the same
// partition, read off the row pointers (core.Partitioner.PartitionRows).
func ReuseRowsWith(pt *core.Partitioner, res *joint.Result, g *graph.Graph, rowPtr []int32) *core.Partition {
	return pt.PartitionRows(g, res.GraphPlan, reuseAttrs, rowPtr)
}

// OverlapModel prices the asynchronous CPU pipeline of Figure 21(b):
// per-epoch sampling and partitioning cost divided across CPU threads,
// compared to the epoch compute time they must hide under.
type OverlapModel struct {
	SampleSeconds    float64 // single-thread sampling cost per epoch
	PartitionSeconds float64 // single-thread partitioning cost per epoch
	EpochSeconds     float64 // GPU epoch time to overlap with
}

// At returns (sampleOnly, sampleAndPartition, epoch) times with the given
// CPU thread count; overlap is complete when sampleAndPartition ≤ epoch.
func (o OverlapModel) At(threads int) (sample, samplePlusOpt, epoch float64) {
	t := float64(threads)
	if t < 1 {
		t = 1
	}
	return o.SampleSeconds / t, (o.SampleSeconds + o.PartitionSeconds) / t, o.EpochSeconds
}

// FullyOverlappedAt returns the smallest thread count at which the CPU
// pipeline hides under the epoch time (0 if never within maxThreads).
func (o OverlapModel) FullyOverlappedAt(maxThreads int) int {
	for th := 1; th <= maxThreads; th++ {
		_, sp, ep := o.At(th)
		if sp <= ep {
			return th
		}
	}
	return 0
}

// Metrics evaluates full classification metrics (accuracy, macro-F1,
// confusion) over the given vertex set.
func (t *FullGraph) Metrics(mask []int32) (nn.Metrics, error) {
	logits := t.Model.Forward(t.GC, t.DS.Features)
	pred := tensor.ArgMaxRows(logits)
	return nn.Evaluate(pred, t.DS.Labels, mask, t.DS.Classes())
}
