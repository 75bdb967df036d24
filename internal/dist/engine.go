package dist

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"wisegraph/internal/fault"
	"wisegraph/internal/graph"
	"wisegraph/internal/nn"
	"wisegraph/internal/obs"
	"wisegraph/internal/retry"
	"wisegraph/internal/tensor"
)

// Engine executes data-parallel GNN layers across simulated devices with
// real tensors: vertices are partitioned into contiguous blocks, each
// device owns its block's feature rows, and the indexing operations
// exchange exactly the rows the placement model prices. It is the
// executable counterpart of the analytic policies above — tests verify
// that distributed outputs and gradients match single-device execution
// bit-for-near-bit, and that the measured communication volumes equal
// the model's.
type Engine struct {
	C Cluster
	G *graph.Graph
	// BlockOf maps vertex → owning device; blocks are contiguous.
	blockStart []int32 // len N+1

	// Per device: in-edges whose destination it owns.
	devEdges [][]int32
	// remoteNeeds[d] lists, per peer p, the unique remote sources device
	// d needs from p (deduplicated — the paper's communication volume).
	remoteNeeds [][][]int32

	// accounting
	mu        sync.Mutex
	commBytes float64

	retries atomic.Uint64 // peer fetches re-issued after a failed attempt
}

// NewEngine partitions g's vertices into c.N contiguous blocks and
// precomputes the exchange lists.
func NewEngine(c Cluster, g *graph.Graph) *Engine {
	n := c.N
	e := &Engine{C: c, G: g, blockStart: make([]int32, n+1)}
	for d := 0; d <= n; d++ {
		e.blockStart[d] = int32(d * g.NumVertices / n)
	}
	e.devEdges = make([][]int32, n)
	need := make([]map[int32]struct{}, n)
	for d := range need {
		need[d] = map[int32]struct{}{}
	}
	for ei := range g.Src {
		d := e.Owner(g.Dst[ei])
		e.devEdges[d] = append(e.devEdges[d], int32(ei))
		if e.Owner(g.Src[ei]) != d {
			need[d][g.Src[ei]] = struct{}{}
		}
	}
	e.remoteNeeds = make([][][]int32, n)
	for d := 0; d < n; d++ {
		e.remoteNeeds[d] = make([][]int32, n)
		for v := range need[d] {
			p := e.Owner(v)
			e.remoteNeeds[d][p] = append(e.remoteNeeds[d][p], v)
		}
		for p := range e.remoteNeeds[d] {
			slices.Sort(e.remoteNeeds[d][p])
		}
	}
	return e
}

// Owner returns the device owning vertex v.
func (e *Engine) Owner(v int32) int {
	return BlockOf(v, e.C.N, e.G.NumVertices)
}

// Block returns device d's vertex range [lo, hi).
func (e *Engine) Block(d int) (lo, hi int32) { return e.blockStart[d], e.blockStart[d+1] }

// CommBytes reports the cumulative bytes exchanged.
func (e *Engine) CommBytes() float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.commBytes
}

// ResetComm zeroes the communication counter.
func (e *Engine) ResetComm() {
	e.mu.Lock()
	e.commBytes = 0
	e.mu.Unlock()
}

func (e *Engine) account(bytes float64) {
	e.mu.Lock()
	e.commBytes += bytes
	e.mu.Unlock()
}

// perDevice runs fn(d) for every device d in [0, n), one goroutine each —
// the simulated devices compute concurrently whatever GOMAXPROCS is, so an
// injected straggler holds up its own device only — and returns once all
// have finished. fn writes nothing but its own device's slots.
func perDevice(n int, fn func(d int)) {
	var wg sync.WaitGroup
	wg.Add(n)
	for d := 0; d < n; d++ {
		go func(d int) {
			defer wg.Done()
			fn(d)
		}(d)
	}
	wg.Wait()
}

// Shard splits a full [V, F] tensor into per-device row blocks (views
// into fresh storage — each device owns an independent copy of its rows,
// as on real hardware).
func (e *Engine) Shard(x *tensor.Tensor) []*tensor.Tensor {
	out := make([]*tensor.Tensor, e.C.N)
	f := x.RowSize()
	for d := 0; d < e.C.N; d++ {
		lo, hi := e.Block(d)
		t := tensor.New(int(hi-lo), f)
		copy(t.Data(), x.Data()[int(lo)*f:int(hi)*f])
		out[d] = t
	}
	return out
}

// Unshard reassembles per-device blocks into a full tensor.
func (e *Engine) Unshard(parts []*tensor.Tensor) *tensor.Tensor {
	f := parts[0].RowSize()
	out := tensor.New(e.G.NumVertices, f)
	for d, p := range parts {
		lo := int(e.blockStart[d])
		copy(out.Data()[lo*f:lo*f+p.Len()], p.Data())
	}
	return out
}

// Resilience reports how many peer fetches the exchange path re-issued
// after a failed attempt.
func (e *Engine) Resilience() (retries uint64) { return e.retries.Load() }

// fetchPeer is one attempt at copying device d's remote needs from peer
// p's block into recv, accounting the bytes moved when it succeeds. It is
// the simulated link, and so the dist.exchange fault site: an injected
// error loses the request before a row moves, a latency fault really
// holds the transfer up for its spike, and injected corruption fails the
// integrity check after the rows have landed. The copy is idempotent — a
// re-issued fetch overwrites the same keys with the same rows — which is
// what makes the retry ladder numerics-preserving.
func (e *Engine) fetchPeer(d, p int, src *tensor.Tensor, recv map[int32][]float32) error {
	flt := fault.Check(fault.SiteExchange)
	if flt != nil {
		if flt.Kind == fault.KindError {
			return flt.Err()
		}
		time.Sleep(flt.Delay) // zero unless the fault is a straggle
	}
	lo := e.blockStart[p]
	f := src.RowSize()
	var vol float64
	for _, v := range e.remoteNeeds[d][p] {
		row := recv[v]
		if row == nil {
			row = make([]float32, f)
			recv[v] = row
		}
		copy(row, src.Row(int(v-lo)))
		vol += float64(f) * 4
	}
	if flt != nil && flt.Kind == fault.KindCorrupt {
		return flt.Err()
	}
	e.account(vol)
	return nil
}

// exchange performs the all-to-all feature fetch: device d receives the
// rows of its remote needs from their owners. Returns, per device, a map
// from global vertex id to the received row (backed by remote tensors'
// copies). Each per-peer fetch runs through the shared retry ladder
// (internal/retry); the error is non-nil only when a fetch exhausted its
// attempts under fault injection.
func (e *Engine) exchange(parts []*tensor.Tensor) ([]map[int32][]float32, error) {
	sp := obs.Begin(obs.StageCollective, obs.NewID())
	defer sp.End()
	n := e.C.N
	out := make([]map[int32][]float32, n)
	errs := make([]error, n)
	perDevice(n, func(d int) {
		recv := map[int32][]float32{}
		for p := 0; p < n; p++ {
			// The device pair keys the jitter: concurrent fetchers differ in d.
			err := retry.Do(uint64(d*n+p), fault.IsInjected, func(attempt int) error {
				if attempt > 0 {
					e.retries.Add(1)
				}
				return e.fetchPeer(d, p, parts[p], recv)
			})
			if err != nil {
				errs[d] = fmt.Errorf("dist: exchange fetch dev%d<-dev%d %w", d, p, err)
				return
			}
		}
		out[d] = recv
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// aggregate runs the normalized sum aggregation out[dst] += w·in[src] on
// every device over its own in-edges, resolving local rows directly and
// remote rows from the exchanged table.
func (e *Engine) aggregate(parts []*tensor.Tensor, recv []map[int32][]float32, width int, invDeg []float32) []*tensor.Tensor {
	n := e.C.N
	out := make([]*tensor.Tensor, n)
	perDevice(n, func(d int) {
		lo, hi := e.Block(d)
		agg := tensor.New(int(hi-lo), width)
		for _, ei := range e.devEdges[d] {
			src := e.G.Src[ei]
			var row []float32
			if sd := e.Owner(src); sd == d {
				row = parts[d].Row(int(src - lo))
			} else {
				row = recv[d][src]
			}
			tensor.AxpyRow(agg.Row(int(e.G.Dst[ei]-lo)), invDeg[ei], row)
		}
		out[d] = agg
	})
	return out
}

// GCNForward runs one distributed GCN layer (h' = Â·(h·W) + b) under the
// chosen placement and returns the per-device outputs.
//
//   - DPPre: exchange the f-wide inputs, then every device computes
//     XW for the rows it needs (duplicate compute on halo rows).
//   - DPPost: every owner computes XW for its own rows once, then the
//     fp-wide results are exchanged (the changing-data-volume win).
//
// Both produce identical numerics; only volume and compute differ.
func (e *Engine) GCNForward(layer *nn.GCNLayer, xParts []*tensor.Tensor, strat Strategy) ([]*tensor.Tensor, error) {
	invDeg := invDegWeights(e.G)
	switch strat {
	case DPPre:
		recv, err := e.exchange(xParts) // f-wide halo rows
		if err != nil {
			return nil, err
		}
		// locally transform owned rows AND received halo rows
		n := e.C.N
		xw := make([]*tensor.Tensor, n)
		recvXW := make([]map[int32][]float32, n)
		perDevice(n, func(d int) {
			xw[d] = tensor.MatMul(nil, xParts[d], layer.W.Value)
			m := map[int32][]float32{}
			for v, row := range recv[d] {
				out := make([]float32, layer.OutDim())
				tensor.VecMat(out, row, layer.W.Value)
				m[v] = out
			}
			recvXW[d] = m
		})
		agg := e.aggregate(xw, recvXW, layer.OutDim(), invDeg)
		for _, a := range agg {
			tensor.AddBias(a, layer.B.Value)
		}
		return agg, nil
	case DPPost:
		n := e.C.N
		xw := make([]*tensor.Tensor, n)
		perDevice(n, func(d int) {
			xw[d] = tensor.MatMul(nil, xParts[d], layer.W.Value)
		})
		recv, err := e.exchange(xw) // fp-wide transformed halo rows
		if err != nil {
			return nil, err
		}
		agg := e.aggregate(xw, recv, layer.OutDim(), invDeg)
		for _, a := range agg {
			tensor.AddBias(a, layer.B.Value)
		}
		return agg, nil
	default:
		return nil, fmt.Errorf("dist: strategy %v not executable for GCN (tensor parallel needs column-sharded weights)", strat)
	}
}

// SAGEForward runs one distributed SAGE layer: mean-aggregate the raw
// features (f-wide exchange), then transform locally.
func (e *Engine) SAGEForward(layer *nn.SAGELayer, xParts []*tensor.Tensor) ([]*tensor.Tensor, error) {
	invDeg := invDegWeights(e.G)
	recv, err := e.exchange(xParts)
	if err != nil {
		return nil, err
	}
	agg := e.aggregate(xParts, recv, layer.InDim(), invDeg)
	n := e.C.N
	out := make([]*tensor.Tensor, n)
	perDevice(n, func(d int) {
		o := tensor.MatMul(nil, xParts[d], layer.WSelf.Value)
		tensor.MatMulAcc(o, agg[d], layer.WNeigh.Value)
		tensor.AddBias(o, layer.B.Value)
		out[d] = o
	})
	return out, nil
}

// GCNBackward runs the distributed backward of GCNForward (either
// strategy — gradients are identical): given per-device d(loss)/d(out),
// it accumulates layer gradients (with an all-reduce over the per-device
// partial weight gradients, accounted) and returns per-device d(loss)/dx.
func (e *Engine) GCNBackward(layer *nn.GCNLayer, xParts, dOutParts []*tensor.Tensor) []*tensor.Tensor {
	invDeg := invDegWeights(e.G)
	n := e.C.N
	// bias gradient: per-device column sums, then all-reduce.
	for d := 0; d < n; d++ {
		accumBias(layer.B.Grad, dOutParts[d])
	}
	dXW := make([]*tensor.Tensor, n)
	for d := range dXW {
		lo, hi := e.Block(d)
		dXW[d] = tensor.New(int(hi-lo), layer.OutDim())
	}
	e.scatterBack(dXW, dOutParts, invDeg)
	// per-device weight gradients + dx, then all-reduce dW (accounted).
	dxParts := make([]*tensor.Tensor, n)
	partials := make([]*tensor.Tensor, n)
	perDevice(n, func(d int) {
		partials[d] = tensor.MatMulTransA(nil, xParts[d], dXW[d])
		dxParts[d] = tensor.MatMulTransB(nil, dXW[d], layer.W.Value)
	})
	for d := 0; d < n; d++ {
		tensor.AXPY(layer.W.Grad, 1, partials[d])
	}
	// ring all-reduce volume: 2·(N-1)/N per device over the weight size
	e.account(2 * float64(n-1) * float64(layer.W.Grad.Len()) * 4)
	return dxParts
}

// scatterBack is the reverse aggregation both backward passes share:
// into[owner(src)][src] += w·dOut[d][dst] over every device d's in-edges.
// A device owns its dst rows; what it owes a remote source it first sums
// in a row of its own, and the sums are then delivered to their owners in
// device order (the transpose all-to-all — same volume as forward,
// accounted).
func (e *Engine) scatterBack(into, dOut []*tensor.Tensor, invDeg []float32) {
	n := e.C.N
	remote := make([]map[int32][]float32, n)
	perDevice(n, func(d int) {
		lo, _ := e.Block(d)
		rem := map[int32][]float32{}
		for _, ei := range e.devEdges[d] {
			src := e.G.Src[ei]
			dor := dOut[d].Row(int(e.G.Dst[ei] - lo))
			var target []float32
			if e.Owner(src) == d {
				target = into[d].Row(int(src - lo))
			} else {
				target = rem[src]
				if target == nil {
					target = make([]float32, len(dor))
					rem[src] = target
				}
			}
			tensor.AxpyRow(target, invDeg[ei], dor)
		}
		remote[d] = rem
	})
	for d := 0; d < n; d++ {
		for v, row := range remote[d] {
			owner := e.Owner(v)
			tensor.AddRow(into[owner].Row(int(v-e.blockStart[owner])), row)
			e.account(float64(len(row)) * 4)
		}
	}
}

func accumBias(g *tensor.Tensor, d *tensor.Tensor) {
	n := g.Len()
	gd := g.Data()
	for i := 0; i < d.Rows(); i++ {
		row := d.Row(i)
		for j := 0; j < n; j++ {
			gd[j] += row[j]
		}
	}
}

// invDegWeights returns per-edge 1/in-degree(dst).
func invDegWeights(g *graph.Graph) []float32 {
	deg := g.InDegrees()
	w := make([]float32, g.NumEdges())
	for e, d := range g.Dst {
		if deg[d] > 0 {
			w[e] = 1 / float32(deg[d])
		}
	}
	return w
}
