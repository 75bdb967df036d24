package dist

import (
	"wisegraph/internal/nn"
	"wisegraph/internal/tensor"
)

// SAGEBackward runs the distributed backward of SAGEForward: given
// per-device d(loss)/d(out) it accumulates the layer's gradients (weight
// partials all-reduced) and returns per-device d(loss)/dx.
func (e *Engine) SAGEBackward(layer *nn.SAGELayer, xParts, dOutParts []*tensor.Tensor) ([]*tensor.Tensor, error) {
	n := e.C.N
	invDeg := invDegWeights(e.G)
	f := layer.InDim()
	for d := 0; d < n; d++ {
		accumBias(layer.B.Grad, dOutParts[d])
	}
	// recompute the forward aggregation (needed for dWneigh)
	recv, err := e.exchange(xParts)
	if err != nil {
		return nil, err
	}
	agg := e.aggregate(xParts, recv, f, invDeg)

	// local dense gradients + dAgg
	dAgg := make([]*tensor.Tensor, n)
	dx := make([]*tensor.Tensor, n)
	selfPart := make([]*tensor.Tensor, n)
	neighPart := make([]*tensor.Tensor, n)
	perDevice(n, func(d int) {
		selfPart[d] = tensor.MatMulTransA(nil, xParts[d], dOutParts[d])
		neighPart[d] = tensor.MatMulTransA(nil, agg[d], dOutParts[d])
		dx[d] = tensor.MatMulTransB(nil, dOutParts[d], layer.WSelf.Value)
		dAgg[d] = tensor.MatMulTransB(nil, dOutParts[d], layer.WNeigh.Value)
	})
	for d := 0; d < n; d++ {
		tensor.AXPY(layer.WSelf.Grad, 1, selfPart[d])
		tensor.AXPY(layer.WNeigh.Grad, 1, neighPart[d])
	}
	e.account(2 * float64(n-1) * float64(layer.WSelf.Grad.Len()+layer.WNeigh.Grad.Len()) * 4)

	// reverse aggregation of dAgg back to source owners
	e.scatterBack(dx, dAgg, invDeg)
	return dx, nil
}
