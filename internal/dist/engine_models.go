package dist

import (
	"math"
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

// GATForward runs one distributed GAT layer. Destinations are block-
// partitioned, so each destination's full in-edge set — and therefore its
// softmax normalization — is local to its owner; the exchange ships the
// transformed rows (Z) of remote sources, whose attention projections are
// then computed locally from the received rows.
func (e *Engine) GATForward(layer *nn.GATLayer, xParts []*tensor.Tensor) ([]*tensor.Tensor, error) {
	n := e.C.N
	heads := layer.Heads()
	dh := layer.OutDim() / heads
	// local transforms
	z := make([]*tensor.Tensor, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for d := 0; d < n; d++ {
		go func(d int) {
			defer wg.Done()
			z[d] = tensor.MatMul(nil, xParts[d], layer.W.Value)
		}(d)
	}
	wg.Wait()
	// halo exchange of transformed rows (fp-wide — the DP-post placement;
	// attention needs Z[src], never raw x[src])
	recv, err := e.exchange(z)
	if err != nil {
		return nil, err
	}

	project := func(zr []float32, a *nn.Param, h int) float32 {
		ar := a.Value.Row(h)
		var s float32
		for dd := 0; dd < dh; dd++ {
			s += ar[dd] * zr[h*dh+dd]
		}
		return s
	}

	out := make([]*tensor.Tensor, n)
	wg.Add(n)
	for d := 0; d < n; d++ {
		go func(d int) {
			defer wg.Done()
			lo, hi := e.Block(d)
			rows := int(hi - lo)
			o := tensor.New(rows, layer.OutDim())
			// group this device's edges by destination
			byDst := make(map[int32][]int32)
			for _, ei := range e.devEdges[d] {
				byDst[e.G.Dst[ei]] = append(byDst[e.G.Dst[ei]], ei)
			}
			srcRow := func(src int32) []float32 {
				if e.Owner(src) == d {
					return z[d].Row(int(src - lo))
				}
				return recv[d][src]
			}
			for dst, edges := range byDst {
				zdst := z[d].Row(int(dst - lo))
				orow := o.Row(int(dst - lo))
				for h := 0; h < heads; h++ {
					pr := project(zdst, layer.AR, h)
					// scores with leaky-relu, then a stable softmax
					scores := make([]float64, len(edges))
					maxS := -1e30
					for i, ei := range edges {
						s := float64(project(srcRow(e.G.Src[ei]), layer.AL, h) + pr)
						if s < 0 {
							s *= 0.2
						}
						scores[i] = s
						if s > maxS {
							maxS = s
						}
					}
					var sum float64
					for i := range scores {
						scores[i] = exp64(scores[i] - maxS)
						sum += scores[i]
					}
					for i, ei := range edges {
						zr := srcRow(e.G.Src[ei])
						tensor.AxpyRow(orow[h*dh:(h+1)*dh], float32(scores[i]/sum), zr[h*dh:(h+1)*dh])
					}
				}
			}
			tensor.AddBias(o, layer.B.Value)
			out[d] = o
		}(d)
	}
	wg.Wait()
	return out, nil
}

func exp64(x float64) float64 { return math.Exp(x) }
