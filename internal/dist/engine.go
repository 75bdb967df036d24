package dist

import (
	"errors"
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
// exchange exactly the rows the placement model prices. A device's step
// is the nn layer's own Forward/Backward on the device's block — tests
// verify that distributed outputs equal single-device execution bit for
// bit, and that the measured communication volumes equal the model's.
type Engine struct {
	C Cluster
	G *graph.Graph
	// BlockOf maps vertex → owning device; blocks are contiguous.
	blockStart []int32 // len N+1

	// remoteNeeds[d][p] lists, in id order, the unique sources device d
	// needs from peer p (deduplicated — the paper's communication volume).
	remoteNeeds [][][]int32
	// blocks[d] is device d's owned-destination block: its owned vertices
	// in id order, then its halo (remoteNeeds[d] by peer, from row
	// haloAt[d][p]), and every in-edge of an owned vertex in global edge
	// order with its type — so each owned destination sees its in-edges in
	// the single-device CSR order.
	blocks []*nn.GraphCtx
	haloAt [][]int

	// accounting
	mu        sync.Mutex
	commBytes float64

	retries atomic.Uint64 // peer fetches re-issued after a failed attempt
}

// NewEngine partitions g's vertices into c.N contiguous blocks and builds
// every device's block and exchange lists.
func NewEngine(c Cluster, g *graph.Graph) *Engine {
	n := c.N
	e := &Engine{C: c, G: g, blockStart: make([]int32, n+1)}
	for d := 0; d <= n; d++ {
		e.blockStart[d] = int32(d * g.NumVertices / n)
	}
	devEdges := make([][]int32, n)
	need := make([]map[int32]int32, n) // remote source → block row
	for d := range need {
		need[d] = map[int32]int32{}
	}
	for ei := range g.Src {
		d := e.Owner(g.Dst[ei])
		devEdges[d] = append(devEdges[d], int32(ei))
		if e.Owner(g.Src[ei]) != d {
			need[d][g.Src[ei]] = 0
		}
	}
	e.remoteNeeds = make([][][]int32, n)
	e.haloAt = make([][]int, n)
	e.blocks = make([]*nn.GraphCtx, n)
	for d := 0; d < n; d++ {
		lo, hi := e.Block(d)
		owned := int(hi - lo)
		halo := make([]int32, 0, len(need[d]))
		for v := range need[d] {
			halo = append(halo, v)
		}
		slices.Sort(halo) // by id, so grouped by owning peer
		for i, v := range halo {
			need[d][v] = int32(owned + i)
		}
		e.remoteNeeds[d] = make([][]int32, n)
		e.haloAt[d] = make([]int, n)
		for p := 0; p < n; p++ {
			i, _ := slices.BinarySearch(halo, e.blockStart[p])
			j, _ := slices.BinarySearch(halo, e.blockStart[p+1])
			e.remoteNeeds[d][p], e.haloAt[d][p] = halo[i:j], owned+i
		}
		m := len(devEdges[d])
		b := &graph.Graph{NumVertices: owned + len(halo), NumTypes: g.NumTypes, Src: make([]int32, m), Dst: make([]int32, m)}
		if g.Type != nil {
			b.Type = make([]int32, m) // typed even when the device owns no edge
		}
		for k, ei := range devEdges[d] {
			src, ok := need[d][g.Src[ei]]
			if !ok {
				src = g.Src[ei] - lo
			}
			b.Src[k], b.Dst[k] = src, g.Dst[ei]-lo
			if b.Type != nil {
				b.Type[k] = g.Type[ei]
			}
		}
		e.blocks[d] = nn.NewGraphCtx(b)
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

// owned returns the view of a block tensor's first rows: device d's own.
func (e *Engine) owned(d int, t *tensor.Tensor) *tensor.Tensor {
	lo, hi := e.Block(d)
	w := t.RowSize()
	return tensor.FromSlice(t.Data()[:int(hi-lo)*w], int(hi-lo), w)
}

// Resilience reports how many peer fetches the exchange path re-issued
// after a failed attempt.
func (e *Engine) Resilience() (retries uint64) { return e.retries.Load() }

// fetchPeer is one attempt at moving rows rows of width w from a peer
// (copyRow(i) copies the i-th), accounting the bytes moved when it
// succeeds. It is the simulated link, and so the dist.exchange fault site:
// an injected error loses the request before a row moves, a latency fault
// really holds the transfer up for its spike, and injected corruption
// fails the integrity check after the rows have landed. The copy is
// idempotent — a re-issued fetch overwrites the same rows with the same
// values — which is what makes the retry ladder numerics-preserving.
func (e *Engine) fetchPeer(rows, w int, copyRow func(i int)) error {
	flt := fault.Check(fault.SiteExchange)
	if flt != nil {
		if flt.Kind == fault.KindError {
			return flt.Err()
		}
		time.Sleep(flt.Delay) // zero unless the fault is a straggle
	}
	for i := 0; i < rows; i++ {
		copyRow(i)
	}
	if flt != nil && flt.Kind == fault.KindCorrupt {
		return flt.Err()
	}
	e.account(float64(rows*w) * 4)
	return nil
}

// exchange runs one all-to-all of w-wide rows: every device d fetches from
// every peer p ≠ d the rows move(d, p) names, each fetch through the
// shared retry ladder (internal/retry). The error is non-nil only when a
// fetch exhausted its attempts under fault injection.
func (e *Engine) exchange(w int, move func(d, p int) (rows int, copyRow func(i int))) error {
	sp := obs.Begin(obs.StageCollective, obs.NewID())
	defer sp.End()
	n := e.C.N
	errs := make([]error, n)
	perDevice(n, func(d int) {
		for p := 0; p < n && errs[d] == nil; p++ {
			if p == d {
				continue
			}
			rows, copyRow := move(d, p)
			// The device pair keys the jitter: concurrent fetchers differ in d.
			err := retry.Do(uint64(d*n+p), fault.IsInjected, func(attempt int) error {
				if attempt > 0 {
					e.retries.Add(1)
				}
				return e.fetchPeer(rows, w, copyRow)
			})
			if err != nil {
				errs[d] = fmt.Errorf("dist: exchange fetch dev%d<-dev%d %w", d, p, err)
			}
		}
	})
	return errors.Join(errs...)
}

// gatherHalo is the forward exchange: every device's block input is its
// own rows of src, then its halo rows fetched from their owners' src.
func (e *Engine) gatherHalo(src []*tensor.Tensor) ([]*tensor.Tensor, error) {
	w := src[0].RowSize()
	in := make([]*tensor.Tensor, e.C.N)
	for d := range in {
		in[d] = tensor.New(e.blocks[d].NumVertices(), w)
		copy(in[d].Data(), src[d].Data())
	}
	err := e.exchange(w, func(d, p int) (int, func(int)) {
		need, at, lo := e.remoteNeeds[d][p], e.haloAt[d][p], e.blockStart[p]
		return len(need), func(i int) { copy(in[d].Row(at+i), src[p].Row(int(need[i]-lo))) }
	})
	return in, err
}

// returnHalo is the reverse exchange over block gradients: every owner
// pulls from each peer the halo rows that peer accumulated for the
// owner's vertices into staging rows, and once every fetch has landed adds
// them into its own rows in device order.
func (e *Engine) returnHalo(grads []*tensor.Tensor) error {
	n := e.C.N
	w := grads[0].RowSize()
	stage := make([][]*tensor.Tensor, n)
	for d := range stage {
		stage[d] = make([]*tensor.Tensor, n)
	}
	err := e.exchange(w, func(d, p int) (int, func(int)) {
		need, at := e.remoteNeeds[p][d], e.haloAt[p][d]
		stage[d][p] = tensor.New(len(need), w)
		return len(need), func(i int) { copy(stage[d][p].Row(i), grads[p].Row(at+i)) }
	})
	if err != nil {
		return err
	}
	perDevice(n, func(d int) {
		for p, rows := range stage[d] {
			for i, v := range e.remoteNeeds[p][d] {
				tensor.AddRow(grads[d].Row(int(v-e.blockStart[d])), rows.Row(i))
			}
		}
	})
	return nil
}

// gcnStages returns nil under DP-pre and, under DP-post, the replicas as
// GCN layers — the one body that splits at its transform.
func gcnStages(replicas []nn.Layer, strat Strategy) ([]*nn.GCNLayer, error) {
	switch strat {
	case DPPre:
		return nil, nil
	case DPPost:
		gcns := make([]*nn.GCNLayer, len(replicas))
		for d, l := range replicas {
			var ok bool
			if gcns[d], ok = l.(*nn.GCNLayer); !ok {
				return nil, fmt.Errorf("dist: DP-post executes only GCN layers, got %T", l)
			}
		}
		return gcns, nil
	}
	return nil, fmt.Errorf("dist: strategy %v does not execute data parallel", strat)
}

// Forward runs one model layer data parallel: replicas[d] is device d's
// copy of the layer (layers cache activations, so each device needs its
// own) and xParts[d] its owned input rows. It returns every device's owned
// output rows, views into the replica's output.
//
//   - DPPre: exchange the in-wide halo rows, then run the layer's Forward
//     on the block (halo rows are transformed again where needed).
//   - DPPost (GCN only): each owner transforms its own rows once, the
//     out-wide XW rows are exchanged, and the block aggregates them.
//
// Either way the owned rows equal the single-device layer's bit for bit.
// The error is non-nil when strat does not execute for the layer, or when
// a halo fetch exhausted its retry budget under fault injection.
func (e *Engine) Forward(replicas []nn.Layer, xParts []*tensor.Tensor, strat Strategy) ([]*tensor.Tensor, error) {
	gcns, err := gcnStages(replicas, strat)
	if err != nil {
		return nil, err
	}
	n := e.C.N
	src := xParts
	if gcns != nil {
		src = make([]*tensor.Tensor, n)
		perDevice(n, func(d int) { src[d] = gcns[d].Transform(xParts[d]) })
	}
	in, err := e.gatherHalo(src)
	if err != nil {
		return nil, err
	}
	out := make([]*tensor.Tensor, n)
	perDevice(n, func(d int) {
		if gcns != nil {
			out[d] = e.owned(d, gcns[d].Aggregate(e.blocks[d], in[d]))
		} else {
			out[d] = e.owned(d, replicas[d].Forward(e.blocks[d], in[d]))
		}
	})
	return out, nil
}

// Backward is Forward's backward half: each replica runs its Backward on
// the block from the device's owned-row output gradient (zero halo rows),
// accumulating the replica's parameter gradients — reducing those across
// devices is the caller's. With needDX it returns each device's owned-row
// input gradient, the halo rows' partial gradients returned to their
// owners by the reverse exchange. Under DP-post that exchange carries the
// out-wide dXW and always runs: the owner's weight gradient needs it.
func (e *Engine) Backward(replicas []nn.Layer, dOutParts []*tensor.Tensor, strat Strategy, needDX bool) ([]*tensor.Tensor, error) {
	gcns, err := gcnStages(replicas, strat)
	if err != nil {
		return nil, err
	}
	n := e.C.N
	grads := make([]*tensor.Tensor, n)
	perDevice(n, func(d int) {
		dOut := tensor.New(e.blocks[d].NumVertices(), dOutParts[d].RowSize())
		copy(dOut.Data(), dOutParts[d].Data())
		if gcns != nil {
			grads[d] = gcns[d].AggregateBackward(e.blocks[d], dOut)
		} else {
			grads[d] = replicas[d].Backward(e.blocks[d], dOut, needDX)
		}
	})
	if gcns == nil && !needDX {
		return nil, nil
	}
	if err := e.returnHalo(grads); err != nil {
		return nil, err
	}
	perDevice(n, func(d int) {
		grads[d] = e.owned(d, grads[d])
		if gcns != nil {
			grads[d] = gcns[d].TransformBackward(grads[d], needDX)
		}
	})
	if !needDX {
		return nil, nil
	}
	return grads, nil
}
