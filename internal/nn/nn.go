// Package nn implements the five GNN models the paper evaluates — GCN,
// SAGE, SAGE-LSTM, GAT and RGCN — as trainable reference implementations
// with hand-written forward and backward passes over the tensor substrate.
// These are the numerically authoritative implementations and the only
// copy of each model's math: the gTask executor runs them (Layer.Infer)
// over a partition's edge order, the other partition-strategy executors
// (tensor-centric, graph-centric) are cross-checked against them, and the
// accuracy experiments (paper Figure 14) train them end to end.
package nn

import (
	"fmt"
	"math"

	"wisegraph/internal/parallel"
	"wisegraph/internal/tensor"
)

// ModelKind identifies one of the evaluated models.
type ModelKind int

const (
	// GCN uses addition as its neural operation (paper's "simple" class).
	GCN ModelKind = iota
	// SAGE is GraphSAGE with mean aggregation (simple class).
	SAGE
	// SAGELSTM is GraphSAGE with LSTM aggregation (complex class).
	SAGELSTM
	// GAT uses multi-head attention (complex class).
	GAT
	// RGCN uses a per-relation MLP (complex class).
	RGCN
	// NumModels counts the kinds.
	NumModels
)

// String names the model as in the paper.
func (k ModelKind) String() string {
	switch k {
	case GCN:
		return "GCN"
	case SAGE:
		return "SAGE"
	case SAGELSTM:
		return "SAGE-LSTM"
	case GAT:
		return "GAT"
	case RGCN:
		return "RGCN"
	default:
		return fmt.Sprintf("model(%d)", int(k))
	}
}

// ParseModel resolves a model name.
func ParseModel(name string) (ModelKind, error) {
	for k := ModelKind(0); k < NumModels; k++ {
		if k.String() == name {
			return k, nil
		}
	}
	return 0, fmt.Errorf("nn: unknown model %q", name)
}

// Complex reports whether the model performs heavy neural operations
// (MLP/Attention/LSTM) — the class WiseGraph speeds up 2.64× — versus the
// simple addition class (1.13×).
func (k ModelKind) Complex() bool { return k == RGCN || k == GAT || k == SAGELSTM }

// EdgeSpMM accumulates out[dst[e]] += w[e] · x[src[e]] for every edge.
// A nil w means unit weights. Destination rows are sharded across workers
// so accumulation is deterministic and race-free. This one primitive
// implements both the forward aggregation (src→dst) and, with the index
// arrays swapped, its transpose for the backward pass.
func EdgeSpMM(out, x *tensor.Tensor, src, dst []int32, w []float32) {
	EdgeSpMMBins(out, x, src, dst, w, nil)
}

// spmmSeqEdges is the edge count below which EdgeSpMMBins runs
// sequentially: binning would cost more than the workers save.
const spmmSeqEdges = 2048

// EdgeSpMMBins is EdgeSpMM with an optional precomputed binning of dst
// over out's rows (built by tensor.BinRows). The full-graph training loop
// caches the bins on its GraphCtx, so every aggregation skips the
// partition pass entirely; a nil bins falls back to binning on the fly.
func EdgeSpMMBins(out, x *tensor.Tensor, src, dst []int32, w []float32, bins *tensor.Bins) {
	rs := x.RowSize()
	if out.RowSize() != rs {
		panic(fmt.Sprintf("nn: EdgeSpMM row sizes %d vs %d", out.RowSize(), rs))
	}
	shards := parallel.Workers(out.Rows(), 1)
	if shards <= 1 || len(src) < spmmSeqEdges {
		for e := range src {
			edgeSpMMOne(out, x, src, dst, w, e, rs)
		}
		return
	}
	if bins == nil {
		bins = tensor.BinRows(nil, dst, out.Rows(), shards)
	}
	parallel.For(bins.NumShards(), 1, func(sh int) {
		edgeSpMMShard(out, x, src, dst, w, bins.Shard(sh), rs)
	})
}

// edgeSpMMShard processes the edges listed in order (a shard's positions).
func edgeSpMMShard(out, x *tensor.Tensor, src, dst []int32, w []float32, order []int32, rs int) {
	for _, e := range order {
		edgeSpMMOne(out, x, src, dst, w, int(e), rs)
	}
}

func edgeSpMMOne(out, x *tensor.Tensor, src, dst []int32, w []float32, e, rs int) {
	d := int(dst[e])
	xo := x.Data()[int(src[e])*rs : (int(src[e])+1)*rs]
	oo := out.Data()[d*rs : (d+1)*rs]
	if w == nil {
		tensor.AddRow(oo, xo)
	} else {
		tensor.AxpyRow(oo, w[e], xo)
	}
}

// Param is a trainable tensor with its gradient and Adam state.
type Param struct {
	Name  string
	Value *tensor.Tensor
	Grad  *tensor.Tensor
	m, v  *tensor.Tensor // Adam moments
	step  int
}

// NewParam allocates a parameter with Xavier initialization.
func NewParam(name string, rng *tensor.RNG, shape ...int) *Param {
	p := &Param{
		Name:  name,
		Value: tensor.XavierUniform(tensor.New(shape...), rng),
		Grad:  tensor.New(shape...),
	}
	return p
}

// NewZeroParam allocates a zero-initialized parameter (biases).
func NewZeroParam(name string, shape ...int) *Param {
	return &Param{Name: name, Value: tensor.New(shape...), Grad: tensor.New(shape...)}
}

// ZeroGrad clears the gradient.
func (p *Param) ZeroGrad() { p.Grad.Zero() }

// Adam is the Adam optimizer (β₁=0.9, β₂=0.999, ε=1e-8).
type Adam struct {
	LR     float64
	Params []*Param
}

// NewAdam wires an optimizer over params.
func NewAdam(lr float64, params []*Param) *Adam {
	return &Adam{LR: lr, Params: params}
}

// Step applies one Adam update to every parameter.
func (a *Adam) Step() {
	const b1, b2, eps = 0.9, 0.999, 1e-8
	for _, p := range a.Params {
		if p.m == nil {
			p.m = tensor.New(p.Value.Shape()...)
			p.v = tensor.New(p.Value.Shape()...)
		}
		p.step++
		c1 := 1 - math.Pow(b1, float64(p.step))
		c2 := 1 - math.Pow(b2, float64(p.step))
		val, g, m, v := p.Value.Data(), p.Grad.Data(), p.m.Data(), p.v.Data()
		lr := a.LR
		parallel.ForRange(len(val), 4096, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				gi := float64(g[i])
				mi := b1*float64(m[i]) + (1-b1)*gi
				vi := b2*float64(v[i]) + (1-b2)*gi*gi
				m[i], v[i] = float32(mi), float32(vi)
				val[i] -= float32(lr * (mi / c1) / (math.Sqrt(vi/c2) + eps))
			}
		})
	}
}

// ZeroGrads clears all gradients.
func (a *Adam) ZeroGrads() {
	for _, p := range a.Params {
		p.ZeroGrad()
	}
}
