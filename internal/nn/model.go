package nn

import (
	"fmt"

	"wisegraph/internal/tensor"
)

// Config describes a model instance. The paper's setting is 3 layers with
// hidden dimension 256 (32 for multi-GPU full-graph training).
type Config struct {
	Kind     ModelKind
	InDim    int
	Hidden   int
	OutDim   int // number of classes
	Layers   int
	Heads    int // GAT heads (default 4)
	NumTypes int // RGCN relations
	// Dropout is the between-layer drop probability applied during
	// training only (0 disables it).
	Dropout float64
	Seed    uint64
}

// Model is a stack of graph-convolution layers with ReLU between them and
// raw logits at the output.
type Model struct {
	Cfg    Config
	layers []Layer

	// caches
	acts   []*tensor.Tensor // pre-activation outputs per layer
	inputs []*tensor.Tensor // inputs per layer
	masks  []*tensor.Tensor // dropout masks per inter-layer gap

	// sticky buffers reused across iterations (see bufs.go)
	reluBufs []*tensor.Tensor // post-ReLU activations per inter-layer gap
	maskBufs []*tensor.Tensor // dropout mask storage per inter-layer gap
	gradBuf  *tensor.Tensor   // d(loss)/d(logits)

	training bool
	dropRNG  *tensor.RNG
}

// NewModel builds the configured model with Xavier-initialized parameters.
func NewModel(cfg Config) (*Model, error) {
	if cfg.Layers < 1 {
		return nil, fmt.Errorf("nn: need at least one layer")
	}
	if cfg.Heads == 0 {
		cfg.Heads = 4
	}
	if cfg.Dropout < 0 || cfg.Dropout >= 1 {
		return nil, fmt.Errorf("nn: dropout %v out of [0,1)", cfg.Dropout)
	}
	rng := tensor.NewRNG(cfg.Seed ^ 0x6d6f64656c)
	m := &Model{Cfg: cfg, dropRNG: tensor.NewRNG(cfg.Seed ^ 0x64726f70)}
	for li := 0; li < cfg.Layers; li++ {
		in := cfg.Hidden
		if li == 0 {
			in = cfg.InDim
		}
		out := cfg.Hidden
		if li == cfg.Layers-1 {
			out = cfg.OutDim
		}
		var l Layer
		switch cfg.Kind {
		case GCN:
			l = NewGCNLayer(rng, in, out)
		case SAGE:
			l = NewSAGELayer(rng, in, out)
		case SAGELSTM:
			l = NewSAGELSTMLayer(rng, in, out)
		case GAT:
			heads := cfg.Heads
			if li == cfg.Layers-1 || out%heads != 0 {
				heads = 1
			}
			l = NewGATLayer(rng, in, out, heads)
		case RGCN:
			if cfg.NumTypes < 1 {
				return nil, fmt.Errorf("nn: RGCN requires NumTypes ≥ 1")
			}
			l = NewRGCNLayer(rng, cfg.NumTypes, in, out)
		default:
			return nil, fmt.Errorf("nn: unknown model kind %v", cfg.Kind)
		}
		m.layers = append(m.layers, l)
	}
	return m, nil
}

// Layers exposes the layer stack (read-only use).
func (m *Model) Layers() []Layer { return m.layers }

// LayerDims returns the activation widths at every layer boundary:
// LayerDims()[0] is the input feature width and LayerDims()[l] the output
// width of layer l-1, so the slice has len(Layers())+1 entries. The
// serving tier's per-layer embedding cache sizes its rows from this.
func (m *Model) LayerDims() []int {
	dims := make([]int, 0, len(m.layers)+1)
	dims = append(dims, m.Cfg.InDim)
	for _, l := range m.layers {
		dims = append(dims, l.OutDim())
	}
	return dims
}

// Params collects every trainable parameter.
func (m *Model) Params() []*Param {
	var ps []*Param
	for _, l := range m.layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// CopyParamsFrom copies every parameter value from src into m. The two
// models must share an architecture (same parameter order, names and
// shapes). Serving workers use this to stamp out per-goroutine model
// replicas from one loaded checkpoint: parameter reads are safe to share,
// but the activation caches inside each layer are not, so every concurrent
// Forward needs its own Model.
func (m *Model) CopyParamsFrom(src *Model) error {
	dst, from := m.Params(), src.Params()
	if len(dst) != len(from) {
		return fmt.Errorf("nn: copy across architectures: %d params vs %d", len(dst), len(from))
	}
	for i, p := range dst {
		q := from[i]
		if p.Name != q.Name || p.Value.Len() != q.Value.Len() {
			return fmt.Errorf("nn: copy across architectures: param %d is %s%v vs %s%v",
				i, p.Name, p.Value.Shape(), q.Name, q.Value.Shape())
		}
		copy(p.Value.Data(), q.Value.Data())
	}
	return nil
}

// NumParams returns the total number of scalar parameters.
func (m *Model) NumParams() int {
	n := 0
	for _, p := range m.Params() {
		n += p.Value.Len()
	}
	return n
}

// Forward runs the full model and returns logits [V, OutDim]. Dropout is
// applied between layers only while the model is in training mode (set by
// TrainStep).
func (m *Model) Forward(gc *GraphCtx, x *tensor.Tensor) *tensor.Tensor {
	m.inputs = m.inputs[:0]
	m.acts = m.acts[:0]
	m.masks = m.masks[:0]
	cur := x
	for len(m.reluBufs) < len(m.layers)-1 {
		m.reluBufs = append(m.reluBufs, nil)
		m.maskBufs = append(m.maskBufs, nil)
	}
	for li, l := range m.layers {
		m.inputs = append(m.inputs, cur)
		out := l.Forward(gc, cur)
		m.acts = append(m.acts, out)
		if li < len(m.layers)-1 {
			m.reluBufs[li] = tensor.ReLU(bufLike(m.reluBufs[li], out), out)
			cur = m.reluBufs[li]
			if m.training && m.Cfg.Dropout > 0 {
				mask := bufLike(m.maskBufs[li], cur)
				m.maskBufs[li] = mask
				m.fillDropoutMask(mask)
				cur = tensor.Mul(cur, cur, mask)
				m.masks = append(m.masks, mask)
			} else {
				m.masks = append(m.masks, nil)
			}
		} else {
			cur = out
		}
	}
	return cur
}

// fillDropoutMask draws an inverted-dropout mask in place: 0 with
// probability p, 1/(1-p) otherwise, so activations keep their expectation.
func (m *Model) fillDropoutMask(mask *tensor.Tensor) {
	p := float32(m.Cfg.Dropout)
	keep := 1 / (1 - p)
	d := mask.Data()
	for i := range d {
		if m.dropRNG.Float32() >= p {
			d[i] = keep
		} else {
			d[i] = 0
		}
	}
}

// Backward propagates d(loss)/d(logits) through the stack, accumulating
// parameter gradients. Nothing reads the gradient of the input features,
// so the first layer does not compute it.
func (m *Model) Backward(gc *GraphCtx, dLogits *tensor.Tensor) {
	grad := dLogits
	for li := len(m.layers) - 1; li >= 0; li-- {
		if li < len(m.layers)-1 {
			// undo the inter-layer dropout, then the ReLU. grad at this
			// point is the layer-above's dX buffer (or gradBuf), which is
			// consumed here, so both steps can run in place.
			if li < len(m.masks) && m.masks[li] != nil {
				grad = tensor.Mul(grad, grad, m.masks[li])
			}
			grad = tensor.ReLUGrad(grad, grad, m.acts[li])
		}
		grad = m.layers[li].Backward(gc, grad, li > 0)
	}
}

// Loss computes masked cross-entropy and, when grad is non-nil, its
// gradient w.r.t. the logits.
func (m *Model) Loss(logits *tensor.Tensor, labels []int32, mask []int32, grad *tensor.Tensor) float64 {
	return tensor.CrossEntropy(logits, labels, mask, grad)
}

// TrainStep runs one full forward/backward/update iteration and returns
// the training loss.
func (m *Model) TrainStep(gc *GraphCtx, x *tensor.Tensor, labels []int32, mask []int32, opt *Adam) float64 {
	opt.ZeroGrads()
	m.training = true
	defer func() { m.training = false }()
	logits := m.Forward(gc, x)
	m.gradBuf = bufLike(m.gradBuf, logits)
	loss := m.Loss(logits, labels, mask, m.gradBuf)
	m.Backward(gc, m.gradBuf)
	opt.Step()
	return loss
}

// Accuracy evaluates classification accuracy over the masked vertices.
func (m *Model) Accuracy(gc *GraphCtx, x *tensor.Tensor, labels []int32, mask []int32) float64 {
	logits := m.Forward(gc, x)
	pred := tensor.ArgMaxRows(logits)
	if len(mask) == 0 {
		return 0
	}
	correct := 0
	for _, v := range mask {
		if pred[v] == labels[v] {
			correct++
		}
	}
	return float64(correct) / float64(len(mask))
}
