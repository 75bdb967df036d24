package dist

import (
	"fmt"

	"wisegraph/internal/nn"
	"wisegraph/internal/tensor"
)

// Trainer trains a model across the engine's devices with data
// parallelism: features and labels are sharded by vertex block, each
// device runs a replica of the model through the engine's Forward/Backward
// with the placement chosen per layer, and replica gradients are
// all-reduced into the master model, which Adam steps. It is the
// executable counterpart of Table 2's full-graph multi-GPU training.
type Trainer struct {
	E     *Engine
	Model *nn.Model
	Opt   *nn.Adam
	// Placement per layer (chosen once from the volume model).
	Placements []Strategy

	replicas []*nn.Model  // one per device
	layers   [][]nn.Layer // layers[li][d]: layer li of device d's replica

	xParts []*tensor.Tensor // sharded input features
	labels []int32
	masks  [][]int32 // per-device local training indices

	acts [][]*tensor.Tensor // per layer, per device: owned pre-activation outputs
}

// NewTrainer shards the dataset across the engine's devices and picks a
// placement per layer from the changing-data-volume model, priced with the
// model's own kind; DP-post executes, and so is offered, for GCN only. The
// step applies ReLU between layers and no dropout, so dropout is refused.
func NewTrainer(e *Engine, m *nn.Model, features *tensor.Tensor, labels []int32, trainMask []int32, lr float64) (*Trainer, error) {
	if m.Cfg.Dropout > 0 {
		return nil, fmt.Errorf("dist: dropout %v is not supported: distributed training applies no dropout masks, so it would train a different network than TrainStep", m.Cfg.Dropout)
	}
	t := &Trainer{
		E:      e,
		Model:  m,
		Opt:    nn.NewAdam(lr, m.Params()),
		xParts: e.Shard(features),
		labels: labels,
		layers: make([][]nn.Layer, len(m.Layers())),
		acts:   make([][]*tensor.Tensor, len(m.Layers())),
	}
	for d := 0; d < e.C.N; d++ {
		r, err := nn.NewModel(m.Cfg)
		if err != nil {
			return nil, err
		}
		t.replicas = append(t.replicas, r)
		for li, l := range r.Layers() {
			t.layers[li] = append(t.layers[li], l)
		}
	}
	gs := Analyze(e.G, e.C.N)
	kind := m.Cfg.Kind
	for _, l := range m.Layers() {
		p := PlaceLayer(e.C, gs, kind, l.InDim(), l.OutDim(), DPPre, true, true)
		if kind == nn.GCN {
			if q := PlaceLayer(e.C, gs, kind, l.InDim(), l.OutDim(), DPPost, true, true); q.Total() < p.Total() {
				p = q
			}
		}
		t.Placements = append(t.Placements, p.Strategy)
	}
	// per-device training vertices (local indices)
	t.masks = make([][]int32, e.C.N)
	for _, v := range trainMask {
		d := e.Owner(v)
		lo, _ := e.Block(d)
		t.masks[d] = append(t.masks[d], v-lo)
	}
	return t, nil
}

// forward copies the master parameters into every replica, clears the
// replicas' gradients and runs the distributed forward pass, caching
// per-layer outputs. The error is non-nil only when a halo exchange
// exhausted its retry budget under fault injection.
func (t *Trainer) forward() ([]*tensor.Tensor, error) {
	for _, r := range t.replicas {
		if err := r.CopyParamsFrom(t.Model); err != nil {
			return nil, err
		}
		for _, p := range r.Params() {
			p.ZeroGrad()
		}
	}
	cur := t.xParts
	for li, reps := range t.layers {
		out, err := t.E.Forward(reps, cur, t.Placements[li])
		if err != nil {
			return nil, fmt.Errorf("dist: layer %d forward: %w", li, err)
		}
		t.acts[li] = out
		cur = out
		if li < len(t.layers)-1 {
			cur = make([]*tensor.Tensor, len(out))
			for d, o := range out {
				cur[d] = tensor.ReLU(nil, o)
			}
		}
	}
	return cur, nil
}

// Step runs one distributed training iteration and returns the global
// training loss (the single-device loss up to summation order: the masked
// mean is weighted by per-device counts). The error is non-nil only when a
// halo exchange exhausted its retry budget under fault injection; the step
// applied no update in that case.
func (t *Trainer) Step() (float64, error) {
	logits, err := t.forward()
	if err != nil {
		return 0, err
	}
	// per-device masked cross-entropy with a global mean
	n := t.E.C.N
	grads := make([]*tensor.Tensor, n)
	losses := make([]float64, n)
	total := 0
	for d := 0; d < n; d++ {
		total += len(t.masks[d])
	}
	perDevice(n, func(d int) {
		lo, hi := t.E.Block(d)
		localLabels := t.labels[lo:hi]
		grad := tensor.New(logits[d].Shape()...)
		// per-device loss over its local mask, weighted to the
		// global mean
		l := tensor.CrossEntropy(logits[d], localLabels, t.masks[d], grad)
		w := float64(len(t.masks[d])) / float64(total)
		tensor.Scale(grad, grad, float32(w))
		losses[d] = l * w
		grads[d] = grad
	})
	// Reduce in device order after the join: float addition is not
	// associative, and summing in goroutine completion order would make
	// the reported loss depend on scheduling (the bit-identical fault
	// parity test catches exactly this).
	lossSum := 0.0
	for d := 0; d < n; d++ {
		lossSum += losses[d]
	}
	// distributed backward through the stack; nothing reads the input
	// features' gradient, so layer 0 does not compute it
	cur := grads
	for li := len(t.layers) - 1; li >= 0; li-- {
		if li < len(t.layers)-1 {
			for d := range cur {
				cur[d] = tensor.ReLUGrad(cur[d], cur[d], t.acts[li][d])
			}
		}
		if cur, err = t.E.Backward(t.layers[li], cur, t.Placements[li], li > 0); err != nil {
			return 0, fmt.Errorf("dist: layer %d backward: %w", li, err)
		}
	}
	t.allReduce()
	t.Opt.Step()
	return lossSum, nil
}

// allReduce sums the replicas' parameter gradients into the master's in
// device order and accounts a ring all-reduce over every parameter:
// 2·(N-1)/N of the gradient bytes per device.
func (t *Trainer) allReduce() {
	t.Opt.ZeroGrads()
	master := t.Model.Params()
	for _, r := range t.replicas {
		for i, p := range r.Params() {
			tensor.AXPY(master[i].Grad, 1, p.Grad)
		}
	}
	t.E.account(2 * float64(t.E.C.N-1) * float64(t.Model.NumParams()) * 4)
}

// Accuracy evaluates classification accuracy over the given global vertex
// ids using the distributed forward pass.
func (t *Trainer) Accuracy(mask []int32) (float64, error) {
	parts, err := t.forward()
	if err != nil {
		return 0, err
	}
	logits := t.E.Unshard(parts)
	pred := tensor.ArgMaxRows(logits)
	if len(mask) == 0 {
		return 0, nil
	}
	correct := 0
	for _, v := range mask {
		if pred[v] == t.labels[v] {
			correct++
		}
	}
	return float64(correct) / float64(len(mask)), nil
}
