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

// EdgeSpMM accumulates out[r] += Σ w[s]·x[idx[s]] over the slots s in
// [ptr[r], ptr[r+1]), s ascending, for every row r of out, with one
// tensor.AccumRun per row. Each row has one owner among the workers, so it
// sums its terms in slot order at any worker count. The forward walks
// gc.CSR.RowPtr over SrcByDst (RGCN: TypePos), the transpose gc.BySrc.
func EdgeSpMM(out, x *tensor.Tensor, ptr, idx []int32, w []float32) {
	if out.RowSize() != x.RowSize() || len(ptr) != out.Rows()+1 {
		panic(fmt.Sprintf("nn: EdgeSpMM rows of %d and %d columns over %d row pointers", out.RowSize(), x.RowSize(), len(ptr)))
	}
	if parallel.Workers(out.Rows(), 32) > 1 {
		parallel.ForRange(out.Rows(), 32, func(lo, hi int) { edgeSpMMRows(out, x, ptr, idx, w, lo, hi) })
		return
	}
	edgeSpMMRows(out, x, ptr, idx, w, 0, out.Rows())
}

// edgeSpMMRows runs EdgeSpMM over rows [lo, hi). One worker calls it
// directly: a closure handed to the pool is an allocation per call.
func edgeSpMMRows(out, x *tensor.Tensor, ptr, idx []int32, w []float32, lo, hi int) {
	od, xd, rs := out.Data(), x.Data(), x.RowSize()
	for r := lo; r < hi; r++ {
		a, b := ptr[r], ptr[r+1]
		tensor.AccumRun(od[r*rs:(r+1)*rs], xd, rs, idx[a:b], w[a:b])
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
