// Package shard is the serving forward: the frozen CSR and feature rows
// are split into contiguous vertex ranges, each owned by one node (a
// Shard) with its own execution contexts and per-layer hot-vertex cache,
// reading one shared, immutable model, and a router (Fleet) fans every
// micro-batch's sampled frontier out to the owners, collects the partial
// per-layer embeddings and aggregates them level by level. It is the only
// leveled forward in the repository — single-node serving is a fleet of
// one in-process shard — and its logits are bitwise-identical at any shard
// count, replica count and worker count. Shards run either
// in-process (the Fleet owns them and calls them directly) or as separate
// wisegraph-shard processes reached over the internal/shard/wire TCP
// protocol. Slow or failed shards are absorbed by one ladder (per-RPC
// timeout, replica failover and hedging, internal/retry's backoff); the
// shard.rpc fault site sits below it, at the transport (faultConn).
package shard

import (
	"context"
	"fmt"
	"sync/atomic"

	"wisegraph/internal/core"
	"wisegraph/internal/device"
	"wisegraph/internal/exec"
	"wisegraph/internal/graph"
	"wisegraph/internal/hotcache"
	"wisegraph/internal/joint"
	"wisegraph/internal/kernels"
	"wisegraph/internal/nn"
	"wisegraph/internal/obs"
	"wisegraph/internal/tensor"
	"wisegraph/internal/train"
)

// Shard owns the contiguous vertex range [lo, hi): the CSR rows (in-
// edges) and feature rows of those vertices, a free list of worker states
// (partitioner, execution context) that Expand/Compute RPCs check out, and
// the range's hot-vertex cache of computed rows (levels ≥ 1; the feature
// matrix is the level-0 store). In-process the underlying CSR and feature
// arrays are shared memory and the shard touches only its owned range; in
// a wisegraph-shard daemon they are the process's own copy. Every RPC
// validates ownership and shape so a routing bug — or a malformed
// deserialized request — surfaces as an error instead of silently reading
// another node's data or copying garbage rows.
type Shard struct {
	id     int
	lo, hi int32
	csr    *graph.CSR
	feats  *tensor.Tensor
	typed  bool
	ntypes int

	layers int
	dims   []int // activation width per level, len layers+1
	fan    []int
	seed   uint64
	plan   *joint.Result
	// model is the one parameter set every RPC of this node reads and none
	// writes. An in-process fleet's shards all point at the fleet's cell,
	// so one SetModel reaches them; a daemon's shard has a cell of its own.
	model *atomic.Pointer[nn.Model]

	cache *hotcache.Cache

	// free holds every worker state not serving an RPC; its capacity is
	// the worker count, so a checkin never blocks.
	free     chan *shardWorker
	closed   chan struct{}
	inflight atomic.Int64
	devs     []*device.Device
}

// NodeConfig sizes one shard node independently of a router — the
// per-node resource budget a wisegraph-shard daemon sets from its own
// flags (worker pool, cache RAM), plus the fleet-coherence knobs the
// router's Hello dictates (fan-outs, sampler seed).
type NodeConfig struct {
	// Workers is how many RPCs the node runs at once (min 1).
	Workers int
	// Fanouts are the per-layer sampling fan-outs, Seed the deterministic
	// sampler key — identical across the fleet, which is what the
	// bitwise-parity guarantee rests on.
	Fanouts []int
	Seed    uint64
	// CacheBudget sizes this node's hot-vertex cache.
	CacheBudget int64
}

// shardWorker is the private compute state one RPC runs on.
type shardWorker struct {
	pt    *core.Partitioner
	ectx  *exec.Ctx
	slots []int32 // DetSample scratch
	// local[v] is vertex v's row in the ComputeArgs.In that last held it.
	// An entry is current only if In[local[v]] == v (see localOf), so the
	// table is written per call but never cleared.
	local []int32
	dsts  []int32 // the targets' local ids, reused across calls
	// The edge arrays of the block a Compute rebuilds, reused across calls
	// (the Graph itself is per call: it caches what it derives from them),
	// and the block's row pointers: target i's edges are rowPtr[i] ..
	// rowPtr[i+1].
	src, dst, typ, rowPtr []int32
	// x is the level-1 input buffer (see gatherInput). It is never zeroed:
	// every row a call reads is overwritten by that call first.
	x []float32
}

// NewShard builds one shard node over its owned slice of the frozen
// (graph, features, model, plan); src is read in place by every RPC and
// must not be written while the node serves. Callers outside a Fleet (the
// wisegraph-shard daemon) must Close it themselves.
func NewShard(id int, lo, hi int32, csr *graph.CSR, feats *tensor.Tensor, ntypes int,
	src *nn.Model, plan *joint.Result, cfg NodeConfig) (*Shard, error) {
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	if len(cfg.Fanouts) != src.Cfg.Layers {
		return nil, fmt.Errorf("shard %d: %d fan-outs for a %d-layer model", id, len(cfg.Fanouts), src.Cfg.Layers)
	}
	s := &Shard{
		id: id, lo: lo, hi: hi,
		csr:    csr,
		feats:  feats,
		typed:  csr.EType != nil,
		ntypes: ntypes,
		layers: src.Cfg.Layers,
		dims:   src.LayerDims(),
		fan:    cfg.Fanouts,
		seed:   cfg.Seed,
		plan:   plan,
		model:  new(atomic.Pointer[nn.Model]),
		cache:  hotcache.New(hotcache.Config{Budget: cfg.CacheBudget}),
		free:   make(chan *shardWorker, cfg.Workers),
		closed: make(chan struct{}),
	}
	s.model.Store(src)
	for i := 0; i < cfg.Workers; i++ {
		dev := device.New(device.A100())
		s.devs = append(s.devs, dev)
		s.free <- &shardWorker{pt: core.NewPartitioner(), ectx: exec.NewCtx(dev),
			local: make([]int32, len(csr.RowPtr)-1)}
	}
	return s, nil
}

// newShard builds one in-process shard of a fleet, reading the fleet's
// model cell.
func newShard(id int, lo, hi int32, f *Fleet) (*Shard, error) {
	s, err := NewShard(id, lo, hi, f.csr, f.feats, f.ntypes, f.model.Load(), f.plan, NodeConfig{
		Workers:     f.cfg.Workers,
		Fanouts:     f.cfg.Fanouts,
		Seed:        f.cfg.Seed,
		CacheBudget: f.cfg.CacheBudget,
	})
	if err != nil {
		return nil, err
	}
	s.model = &f.model
	return s, nil
}

// checkout takes a worker state off the free list for one RPC, counting
// the RPC in flight from here to checkin (the fleet-wide drain invariant
// reads the count). A closed shard answers with a draining error; a
// canceled context (a hedged read lost to a faster replica, a peer that
// hung up) gives up the wait.
func (s *Shard) checkout(ctx context.Context) (*shardWorker, error) {
	s.inflight.Add(1)
	select {
	case w := <-s.free:
		return w, nil
	case <-s.closed:
		s.inflight.Add(-1)
		return nil, fmt.Errorf("shard %d: draining", s.id)
	case <-ctx.Done():
		s.inflight.Add(-1)
		return nil, ctx.Err()
	}
}

func (s *Shard) checkin(w *shardWorker) {
	s.inflight.Add(-1)
	s.free <- w
}

// Close drains the node: an RPC still waiting for a worker gets a
// draining error, and Close returns once every worker state is back on
// the free list — every RPC that got one has been answered. After that
// the list stays empty, so any later RPC is refused. Safe to call exactly
// once.
func (s *Shard) Close() {
	close(s.closed)
	for i := 0; i < cap(s.free); i++ {
		(<-s.free).pt.Release()
	}
}

// InFlight returns the shard's admitted-but-unanswered RPC count — the
// per-node half of the fleet-wide drain invariant.
func (s *Shard) InFlight() int64 { return s.inflight.Load() }

// ID returns the shard's fleet index; Lo and Hi its owned range.
func (s *Shard) ID() int { return s.id }

// Bounds returns the owned vertex range [lo, hi).
func (s *Shard) Bounds() (lo, hi int32) { return s.lo, s.hi }

// Cache exposes the node's hot-vertex cache (for daemon stats).
func (s *Shard) Cache() *hotcache.Cache { return s.cache }

// checkOwned rejects any vertex outside the shard's range: the router
// must never ask a node for data it does not own.
func (s *Shard) checkOwned(verts []int32) error {
	for _, v := range verts {
		if v < s.lo || v >= s.hi {
			return fmt.Errorf("shard %d: vertex %d outside owned range [%d,%d)", s.id, v, s.lo, s.hi)
		}
	}
	return nil
}

func (s *Shard) degree(v int32) int32 { return s.csr.RowPtr[v+1] - s.csr.RowPtr[v] }

// handleExpand resolves one level's owned span. At levels ≥ 1 that is a
// cache probe for every vertex and deterministic frontier sampling for the
// misses. Level 0 is a plain lookup — the reply is the owned feature rows,
// with no hit flags and nothing cached: the feature matrix already holds
// them — and the router asks for it only on behalf of another shard's
// level-1 block (its halo). The handler's stages go on the caller's track
// when ctx carries one, so an inline caller's trace decomposes with no gap
// across the call.
func (s *Shard) handleExpand(ctx context.Context, w *shardWorker, a *ExpandArgs) (*ExpandReply, error) {
	// Level 0 is data movement (the feature gather); above it the work is
	// sampling.
	stage := obs.StageSample
	if a.Level == 0 {
		stage = obs.StageCollective
	}
	tr := obs.Enter(ctx, stage, a.Batch)
	defer tr.Leave()
	if a.Level < 0 || a.Level >= len(s.dims) {
		return nil, fmt.Errorf("shard %d: expand level %d outside [0,%d]", s.id, a.Level, s.layers)
	}
	// A request's claimed width must match the level's actual row width —
	// level 0 is the feature width, level l the output width of layer
	// l-1. A short Dim would silently copy truncated rows into the reply
	// (and a deserialized request can claim anything), so reject it the
	// way handleCompute rejects a mis-sized Rows payload.
	if a.Dim != s.dims[a.Level] {
		return nil, fmt.Errorf("shard %d: expand level %d rows are %d wide, request claims %d",
			s.id, a.Level, s.dims[a.Level], a.Dim)
	}
	if err := s.checkOwned(a.Verts); err != nil {
		return nil, err
	}
	r := &ExpandReply{Rows: make([]float32, len(a.Verts)*a.Dim)}
	if a.Level == 0 {
		for i, v := range a.Verts {
			copy(r.Rows[i*a.Dim:(i+1)*a.Dim], s.feats.Row(int(v)))
		}
		return r, nil
	}
	r.Hit = make([]bool, len(a.Verts))
	if s.cache != nil {
		tr.To(obs.StageCache)
		for i, v := range a.Verts {
			r.Hit[i] = s.cache.Get(a.Ver, a.Level, v, r.Rows[i*a.Dim:(i+1)*a.Dim])
		}
		tr.To(stage)
	}
	// A cached interior vertex prunes its entire sampled subtree from the
	// batch: only the misses are sampled, all into one buffer sized to them
	// (none when everything hit), each Srcs[i] a capped slice of it.
	r.Srcs = make([][]int32, len(a.Verts))
	fan := s.fan[s.layers-a.Level]
	n := 0
	for i, v := range a.Verts {
		if !r.Hit[i] {
			n += min(int(s.degree(v)), fan)
		}
	}
	if n == 0 {
		return r, nil
	}
	flat := make([]int32, 0, n)
	for i, v := range a.Verts {
		if r.Hit[i] {
			continue
		}
		lo := len(flat)
		flat = graph.DetSample(flat, s.csr, v, fan, s.seed)
		for j := lo; j < len(flat); j++ {
			flat[j] = s.csr.Col[flat[j]]
		}
		r.Srcs[i] = flat[lo:len(flat):len(flat)]
	}
	return r, nil
}

// block rebuilds the sampled block of a's targets over the indexed input
// set a.In, in the worker's edge arrays: targets ascending, each one's
// edges contiguous in DetSample order, every endpoint a local id, and
// where each target's edges end in w.rowPtr. The block is thus born
// grouped by destination row, which is the task order of a plan whose one
// restriction is uniq(dst-id)=K (see handleCompute).
func (s *Shard) block(w *shardWorker, a *ComputeArgs) (*graph.Graph, error) {
	fan := s.fan[s.layers-a.Level]
	w.src, w.dst, w.typ, w.dsts = w.src[:0], w.dst[:0], w.typ[:0], w.dsts[:0]
	w.rowPtr = append(w.rowPtr[:0], 0)
	for i, v := range a.Verts {
		if i > 0 && v <= a.Verts[i-1] {
			return nil, fmt.Errorf("shard %d: targets must be strictly ascending, got %d after %d", s.id, v, a.Verts[i-1])
		}
		d, ok := w.localOf(a.In, v)
		if !ok {
			return nil, fmt.Errorf("shard %d: target %d missing from input set", s.id, v)
		}
		w.dsts = append(w.dsts, d)
		w.slots = graph.DetSample(w.slots[:0], s.csr, v, fan, s.seed)
		for _, slot := range w.slots {
			src, ok := w.localOf(a.In, s.csr.Col[slot])
			if !ok {
				return nil, fmt.Errorf("shard %d: source %d of target %d missing from input set",
					s.id, s.csr.Col[slot], v)
			}
			w.src = append(w.src, src)
			w.dst = append(w.dst, d)
			if s.typed {
				w.typ = append(w.typ, s.csr.EType[slot])
			}
		}
		w.rowPtr = append(w.rowPtr, int32(len(w.src)))
	}
	g := &graph.Graph{NumVertices: len(a.In), NumTypes: 1, Src: w.src, Dst: w.dst}
	if len(w.typ) > 0 {
		g.NumTypes, g.Type = s.ntypes, w.typ
	}
	return g, nil
}

// index validates in — strictly ascending vertex ids, which is what makes
// a vertex's row in it a canonical local id — and records each vertex's
// row for localOf.
func (w *shardWorker) index(in []int32) error {
	prev := int32(-1)
	for i, v := range in {
		if v <= prev || int(v) >= len(w.local) {
			return fmt.Errorf("input set must be strictly ascending ids in [0,%d), got %d after %d", len(w.local), v, prev)
		}
		w.local[v] = int32(i)
		prev = v
	}
	return nil
}

// localOf returns v's row in the indexed input set in, or false when v is
// not in it.
func (w *shardWorker) localOf(in []int32, v int32) (int32, bool) {
	i := w.local[v]
	return i, int(i) < len(in) && in[i] == v
}

// gatherInput assembles a level-1 block's [len(in), dim] input in the
// worker's buffer: the rows of the ids this shard owns (ownedRun) are read
// out of the feature matrix, and halo — the rows of every other id, in
// in's order — is split around that run. The result is byte for byte the
// input the router would have shipped whole.
func (s *Shard) gatherInput(w *shardWorker, in []int32, halo []float32, dim int) ([]float32, error) {
	lo, hi := ownedRun(in, s.lo, s.hi)
	if n := len(in) - (hi - lo); len(halo) != n*dim {
		return nil, fmt.Errorf("shard %d: %d halo row elements for %d input vertices outside [%d,%d) × dim %d",
			s.id, len(halo), n, s.lo, s.hi, dim)
	}
	if n := len(in) * dim; cap(w.x) < n {
		w.x = make([]float32, n)
	}
	x := w.x[:len(in)*dim]
	copy(x, halo[:lo*dim])
	for i := lo; i < hi; i++ {
		copy(x[i*dim:(i+1)*dim], s.feats.Row(int(in[i])))
	}
	copy(x[hi*dim:], halo[lo*dim:])
	return x, nil
}

// handleCompute runs layer Level-1 for the shard's owned miss targets:
// it rebuilds each target's sampled block edges over the input rows —
// targets in ascending parent order, each one's edges contiguous
// in DetSample order, in the input set's (sorted-parent-order) local id
// space: the canonical edge stream the bitwise-parity argument relies on,
// which is why In and Verts are rejected unless strictly ascending —
// executes the layer for the target rows only under the frozen joint plan
// with the shard's engine, applies the between-layer activation, and
// admits the fresh rows into the shard's cache. Above level 1 the input
// rows all ride the request and are read in place, never copied or
// modified; at level 1 the request carries only the halo and the shard
// gathers the rows it owns itself (gatherInput), which needs no state
// from the batch — any replica can serve it.
func (s *Shard) handleCompute(ctx context.Context, w *shardWorker, a *ComputeArgs) (*ComputeReply, error) {
	tr := obs.Enter(ctx, obs.StagePartition, a.Batch)
	defer tr.Leave()
	// Loaded once, so the call finishes on the parameter set it started
	// with even when a reload publishes the next one meanwhile.
	m := s.model.Load()
	if a.Level < 1 || a.Level > s.layers {
		return nil, fmt.Errorf("shard %d: compute level %d outside [1,%d]", s.id, a.Level, s.layers)
	}
	if a.InDim != s.dims[a.Level-1] || a.OutDim != s.dims[a.Level] {
		return nil, fmt.Errorf("shard %d: compute level %d is %d->%d wide, request claims %d->%d",
			s.id, a.Level, s.dims[a.Level-1], s.dims[a.Level], a.InDim, a.OutDim)
	}
	if err := s.checkOwned(a.Verts); err != nil {
		return nil, err
	}
	if err := w.index(a.In); err != nil {
		return nil, fmt.Errorf("shard %d: %w", s.id, err)
	}
	rows := a.Rows
	if a.Level == 1 {
		// The gather stands in for the router's level-0 round trip, so it
		// is booked as the data movement that was.
		tr.To(obs.StageCollective)
		var err error
		if rows, err = s.gatherInput(w, a.In, a.Rows, a.InDim); err != nil {
			return nil, err
		}
		tr.To(obs.StagePartition)
	} else if len(rows) != len(a.In)*a.InDim {
		return nil, fmt.Errorf("shard %d: %d input rows elements for %d vertices × dim %d",
			s.id, len(rows), len(a.In), a.InDim)
	}
	g, err := s.block(w, a)
	if err != nil {
		return nil, err
	}

	// The layer runs over the block in the plan's task order, the targets
	// its destination rows. Under a plan whose one restriction is
	// uniq(dst-id)=K the block is born in that order — tasks are runs of K
	// targets — so its partition and context are read off w.rowPtr; any
	// other plan partitions the block and orders a context by the result.
	var part *core.Partition
	var gc *nn.GraphCtx
	if _, ok := s.plan.GraphPlan.DstBatch(); ok {
		part = train.ReuseRowsWith(w.pt, s.plan, g, w.rowPtr)
		gc, err = nn.NewGraphCtxRows(g, w.dsts, w.rowPtr)
	} else {
		part = train.ReusePlanWith(w.pt, s.plan, g)
		gc, err = nn.NewGraphCtxOrder(g, part.Order, w.dsts)
	}
	if err != nil {
		return nil, fmt.Errorf("shard %d: %w", s.id, err)
	}
	x := tensor.FromSlice(rows, len(a.In), a.InDim)
	w.ectx.TraceID = a.Batch
	tr.End() // RunModelLayerRows records the exec span itself
	out, err := kernels.RunModelLayerRows(w.ectx, gc, m, a.Level-1, x, part, s.plan.OpPlan)
	gc.Release()
	tr.To(obs.StageCollective)
	if err != nil {
		return nil, err
	}
	defer tensor.Put(out)

	// The targets are the layer's destination rows, so out is the reply
	// but for the between-layer activation, placed exactly as
	// kernels.RunModel places it: ReLU after every layer but the last.
	r := &ComputeReply{Rows: make([]float32, len(a.Verts)*a.OutDim)}
	if a.Level < s.layers {
		tensor.ReLU(tensor.FromSlice(r.Rows, out.Shape()...), out)
	} else {
		copy(r.Rows, out.Data())
	}
	if s.cache != nil {
		tr.To(obs.StageCache)
		for i, v := range a.Verts {
			s.cache.Put(a.Ver, a.Level, v, s.degree(v), r.Rows[i*a.OutDim:(i+1)*a.OutDim])
		}
	}
	return r, nil
}
