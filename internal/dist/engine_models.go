package dist

import (
	"sync"

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
	var wg sync.WaitGroup
	wg.Add(n)
	for d := 0; d < n; d++ {
		go func(d int) {
			defer wg.Done()
			selfPart[d] = tensor.MatMulTransA(nil, xParts[d], dOutParts[d])
			neighPart[d] = tensor.MatMulTransA(nil, agg[d], dOutParts[d])
			dx[d] = tensor.MatMulTransB(nil, dOutParts[d], layer.WSelf.Value)
			dAgg[d] = tensor.MatMulTransB(nil, dOutParts[d], layer.WNeigh.Value)
		}(d)
	}
	wg.Wait()
	for d := 0; d < n; d++ {
		tensor.AXPY(layer.WSelf.Grad, 1, selfPart[d])
		tensor.AXPY(layer.WNeigh.Grad, 1, neighPart[d])
	}
	e.account(2 * float64(n-1) * float64(layer.WSelf.Grad.Len()+layer.WNeigh.Grad.Len()) * 4)

	// reverse aggregation of dAgg back to source owners
	remote := make([]map[int32][]float32, n)
	wg.Add(n)
	for d := 0; d < n; d++ {
		go func(d int) {
			defer wg.Done()
			lo, _ := e.Block(d)
			rem := map[int32][]float32{}
			for _, ei := range e.devEdges[d] {
				src := e.G.Src[ei]
				dst := e.G.Dst[ei]
				dor := dAgg[d].Row(int(dst - lo))
				var target []float32
				if e.Owner(src) == d {
					target = dx[d].Row(int(src - lo))
				} else {
					target = rem[src]
					if target == nil {
						target = make([]float32, f)
						rem[src] = target
					}
				}
				tensor.AxpyRow(target, invDeg[ei], dor)
			}
			remote[d] = rem
		}(d)
	}
	wg.Wait()
	for d := 0; d < n; d++ {
		for v, row := range remote[d] {
			owner := e.Owner(v)
			lo := e.blockStart[owner]
			target := dx[owner].Row(int(v - lo))
			tensor.AddRow(target, row)
			e.account(float64(len(row)) * 4)
		}
	}
	return dx, nil
}
