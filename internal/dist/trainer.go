package dist

import (
	"fmt"

	"wisegraph/internal/nn"
	"wisegraph/internal/tensor"
)

// Trainer trains a multi-layer GCN across the engine's devices with data
// parallelism: features and labels are sharded by vertex block, weights
// are replicated (gradients all-reduced), and every layer runs the
// distributed forward/backward with the placement chosen per layer. It is
// the executable counterpart of Table 2's full-graph multi-GPU training —
// tests verify loss and parameters track single-device training exactly.
type Trainer struct {
	E     *Engine
	Model *nn.Model
	Opt   *nn.Adam
	// Placement per layer (chosen once from the volume model).
	Placements []Strategy

	xParts []*tensor.Tensor // sharded input features
	labels []int32
	masks  [][]int32 // per-device local training indices

	// caches per layer for backward
	layerIn  [][]*tensor.Tensor
	layerOut [][]*tensor.Tensor
}

// NewTrainer shards the dataset across the engine's devices and picks a
// placement per layer from the changing-data-volume model.
func NewTrainer(e *Engine, m *nn.Model, features *tensor.Tensor, labels []int32, trainMask []int32, lr float64) (*Trainer, error) {
	for _, l := range m.Layers() {
		switch l.(type) {
		case *nn.GCNLayer, *nn.SAGELayer:
		default:
			return nil, fmt.Errorf("dist: distributed training supports GCN and SAGE layers, got %T", l)
		}
	}
	t := &Trainer{
		E:      e,
		Model:  m,
		Opt:    nn.NewAdam(lr, m.Params()),
		xParts: e.Shard(features),
		labels: labels,
	}
	gs := Analyze(e.G, e.C.N)
	for _, l := range m.Layers() {
		p := PlaceLayer(e.C, gs, nn.GCN, l.InDim(), l.OutDim(), DPPre, true, true)
		if q := PlaceLayer(e.C, gs, nn.GCN, l.InDim(), l.OutDim(), DPPost, true, true); q.Total() < p.Total() {
			p = q
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

// forward runs the distributed forward pass, caching per-layer
// activations. The error is non-nil only when a halo exchange exhausted
// its retry budget under fault injection.
func (t *Trainer) forward() ([]*tensor.Tensor, error) {
	cur := t.xParts
	t.layerIn = t.layerIn[:0]
	t.layerOut = t.layerOut[:0]
	layers := t.Model.Layers()
	for li, l := range layers {
		t.layerIn = append(t.layerIn, cur)
		var out []*tensor.Tensor
		var err error
		switch lt := l.(type) {
		case *nn.GCNLayer:
			out, err = t.E.GCNForward(lt, cur, t.Placements[li])
		case *nn.SAGELayer:
			out, err = t.E.SAGEForward(lt, cur)
		}
		if err != nil {
			return nil, fmt.Errorf("dist: layer %d forward: %w", li, err)
		}
		t.layerOut = append(t.layerOut, out)
		if li < len(layers)-1 {
			next := make([]*tensor.Tensor, len(out))
			for d, o := range out {
				next[d] = tensor.ReLU(nil, o)
			}
			cur = next
		} else {
			cur = out
		}
	}
	return cur, nil
}

// Step runs one distributed training iteration and returns the global
// training loss (identical to the single-device loss: the masked mean is
// weighted by per-device counts). The error is non-nil only when a halo
// exchange exhausted its retry budget under fault injection; the step
// applied no update in that case.
func (t *Trainer) Step() (float64, error) {
	t.Opt.ZeroGrads()
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
	// distributed backward through the stack
	layers := t.Model.Layers()
	cur := grads
	for li := len(layers) - 1; li >= 0; li-- {
		if li < len(layers)-1 {
			for d := range cur {
				cur[d] = tensor.ReLUGrad(nil, cur[d], t.layerOut[li][d])
			}
		}
		switch lt := layers[li].(type) {
		case *nn.GCNLayer:
			cur = t.E.GCNBackward(lt, t.layerIn[li], cur)
		case *nn.SAGELayer:
			cur, err = t.E.SAGEBackward(lt, t.layerIn[li], cur)
			if err != nil {
				return 0, fmt.Errorf("dist: layer %d backward: %w", li, err)
			}
		}
	}
	t.Opt.Step()
	return lossSum, nil
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
