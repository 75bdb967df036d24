// Package serve is the online inference subsystem: it loads a checkpointed
// model plus its graph, freezes an inference context (CSR, one-shot-tuned
// joint plan reused across every request) and answers node-classification
// queries through the gTask execution path. The forward itself lives in
// internal/shard: every engine serves through a shard.Fleet, and
// single-node serving is the fleet of one in-process shard.
//
// The core is a dynamic micro-batcher: concurrent requests are coalesced —
// up to a size cap, for as long as an earlier batch is still running — into
// one sampled-subgraph forward pass whose results are demultiplexed back to
// the callers. Batch size is a workload-partition knob chosen online, the
// serving-side analogue of WiseGraph's operation-partition dimension.
// Around it sits the robustness machinery a production endpoint needs:
// a bounded admission queue with load shedding, per-request deadlines and
// context cancellation, a fixed worker pool, and graceful drain on
// shutdown (admitted requests are answered; new ones are rejected).
package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"wisegraph/internal/dataset"
	"wisegraph/internal/device"
	"wisegraph/internal/fault"
	"wisegraph/internal/graph"
	"wisegraph/internal/hotcache"
	"wisegraph/internal/joint"
	"wisegraph/internal/kernels"
	"wisegraph/internal/nn"
	"wisegraph/internal/obs"
	"wisegraph/internal/shard"
	"wisegraph/internal/tensor"
)

// Sentinel errors surfaced to transport layers (mapped to HTTP statuses).
var (
	// ErrOverloaded means the admission queue is full: the request was
	// shed immediately instead of queuing unboundedly (HTTP 429).
	ErrOverloaded = errors.New("serve: admission queue full")
	// ErrDraining means the engine is shutting down (HTTP 503).
	ErrDraining = errors.New("serve: draining")
)

// maxNodes bounds the node count of a single request.
const maxNodes = 256

// Options tune the engine. Zero values pick serving defaults.
type Options struct {
	// Workers is the number of micro-batches in flight at once (default
	// 2); every in-process shard node holds as many partitioners and
	// execution contexts.
	Workers int
	// BatchCap is the most requests one micro-batch coalesces (default 16).
	BatchCap int
	// QueueDepth bounds the admission queue; requests beyond it are shed
	// with ErrOverloaded (default 4×BatchCap).
	QueueDepth int
	// Deadline is the default per-request deadline applied when the
	// caller's context has none (default 2s).
	Deadline time.Duration
	// Fanouts are the neighbor-sampling fan-outs, one per model layer
	// (default 10 per layer).
	Fanouts []int
	// Plan is a pre-tuned joint plan; nil runs a one-shot tune on a
	// representative sampled subgraph at startup (§6.3 reuse).
	Plan *joint.Result
	// Seed keys the deterministic per-vertex neighbor sampler (and the
	// one-shot plan tune). Serving numerics are a pure function of
	// (vertex, seed, params, graph), never of batch composition.
	Seed uint64
	// CacheBudget bounds the hot-vertex embedding cache in bytes; 0
	// disables caching. The cache holds computed rows (levels ≥ 1) keyed by
	// (level, vertex) and is invalidated wholesale on Reload. It changes
	// performance only: cached logits are bitwise-equal to uncached.
	CacheBudget int64
	// CacheWarm pre-admits up to K top-in-degree vertices per layer at
	// startup by running warm-up forwards over them before the first
	// request is accepted; 0 disables warm-up. Warm-up changes first-
	// request latency only — cached rows are bitwise-equal to computed.
	CacheWarm int
	// Shards is the span count of the serving fleet (default 1, a single
	// node): the CSR and feature rows split into contiguous per-shard
	// ranges, a router fans each micro-batch's frontier out to the
	// owners, and CacheBudget is a PER-SHARD budget (each simulated node
	// brings its own RAM). Logits are bitwise-identical at any count.
	Shards int
	// Replicas serves each shard span with R interchangeable nodes
	// (default 1 = unreplicated): the router fails over and hedges reads
	// across a span's replicas, first answer wins. Both RPC kinds are
	// pure functions of (request, model version), so any replica's answer
	// is bitwise the answer. With ShardAddrs, the flat address list must
	// group into R-way replica sets (all replicas of span 0 first).
	Replicas int
	// ShardTimeout is the per-RPC deadline in the sharded tier (default
	// 250ms): an attempt with no reply by then is a counted shard timeout
	// and is retried; replica hedges fire at a quarter of it.
	ShardTimeout time.Duration
	// ShardAddrs routes the sharded tier over TCP: one wisegraph-shard
	// daemon address per shard. Non-empty addresses override Shards (the
	// shard count is the address count), each daemon is handshaken with
	// the full fleet configuration at startup, and logits stay bitwise-
	// identical to in-process serving. Cache budgets live daemon-side
	// (each daemon sizes its own cache from its own flags), but CacheWarm
	// still warms those caches through the fleet. Reload is rejected over
	// TCP: daemons own their checkpoints.
	ShardAddrs []string
}

// Validate rejects nonsensical configurations with a descriptive error
// instead of a late panic or silent misbehavior. Zero values are fine
// (they select defaults); negative knobs and mismatched fan-outs are not.
func (o Options) Validate(layers int) error {
	switch {
	case o.Workers < 0:
		return fmt.Errorf("serve: negative worker count %d", o.Workers)
	case o.BatchCap < 0:
		return fmt.Errorf("serve: negative batch cap %d", o.BatchCap)
	case o.QueueDepth < 0:
		return fmt.Errorf("serve: negative queue depth %d", o.QueueDepth)
	case o.Deadline < 0:
		return fmt.Errorf("serve: negative deadline %v", o.Deadline)
	case o.CacheBudget < 0:
		return fmt.Errorf("serve: negative cache budget %d bytes", o.CacheBudget)
	case o.CacheBudget > 0 && layers <= 0:
		return fmt.Errorf("serve: cache enabled (budget %d) but model has no layers to cache", o.CacheBudget)
	case o.CacheWarm < 0:
		return fmt.Errorf("serve: negative cache warm-up count %d", o.CacheWarm)
	case o.Shards < 0:
		return fmt.Errorf("serve: negative shard count %d", o.Shards)
	case o.Replicas < 0:
		return fmt.Errorf("serve: negative replica count %d", o.Replicas)
	case o.ShardTimeout < 0:
		return fmt.Errorf("serve: negative shard timeout %v", o.ShardTimeout)
	case o.CacheWarm > 0 && o.CacheBudget <= 0 && len(o.ShardAddrs) == 0:
		// Remote fleets are exempt: their cache budgets are daemon-side
		// flags the router never sees, so warm-up is meaningful there
		// even with no router-side budget.
		return fmt.Errorf("serve: cache warm-up %d requested with caching disabled", o.CacheWarm)
	}
	if r := max(o.Replicas, 1); len(o.ShardAddrs) > 0 {
		if len(o.ShardAddrs)%r != 0 {
			return fmt.Errorf("serve: %d shard addresses cannot form %d-way replica groups", len(o.ShardAddrs), r)
		}
		if o.Shards > 1 && o.Shards != len(o.ShardAddrs)/r {
			return fmt.Errorf("serve: %d shards requested but %d shard addresses at %d replicas give %d",
				o.Shards, len(o.ShardAddrs), r, len(o.ShardAddrs)/r)
		}
	}
	if len(o.Fanouts) > 0 && len(o.Fanouts) != layers {
		return fmt.Errorf("serve: %d fan-outs for a %d-layer model (need one per layer)", len(o.Fanouts), layers)
	}
	for i, f := range o.Fanouts {
		if f < 1 {
			return fmt.Errorf("serve: fan-out[%d] = %d, want >= 1", i, f)
		}
	}
	return nil
}

func (o Options) withDefaults(layers int) Options {
	if o.Workers <= 0 {
		o.Workers = 2
	}
	if o.BatchCap <= 0 {
		o.BatchCap = 16
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 4 * o.BatchCap
	}
	if o.Deadline <= 0 {
		o.Deadline = 2 * time.Second
	}
	if len(o.Fanouts) == 0 {
		o.Fanouts = make([]int, layers)
		for i := range o.Fanouts {
			o.Fanouts[i] = 10
		}
	}
	if o.Replicas < 1 {
		o.Replicas = 1
	}
	if len(o.ShardAddrs) > 0 {
		o.Shards = len(o.ShardAddrs) / o.Replicas
	}
	if o.Shards < 1 {
		o.Shards = 1
	}
	if o.ShardTimeout <= 0 {
		o.ShardTimeout = 250 * time.Millisecond
	}
	return o
}

// Prediction is the answer for one request: the predicted class per
// queried node and, when asked for, the raw logits rows.
type Prediction struct {
	Classes []int32
	Logits  [][]float32
}

type result struct {
	pred Prediction
	err  error
}

type request struct {
	ctx        context.Context
	nodes      []int32
	wantLogits bool
	enqueued   time.Time
	done       chan result // buffered(1); completed exactly once
}

// Engine is the serving engine. Build with NewEngine, query with Predict,
// stop with Shutdown.
type Engine struct {
	ds   *dataset.Dataset
	csr  *graph.CSR
	cfg  nn.Config // the served architecture; Reload accepts no other
	plan *joint.Result
	opts Options

	// modelMu orders Reload's model swap against batches: a worker holds
	// the read lock across a whole micro-batch, so every shard RPC of the
	// batch carries one model version and reads one parameter set.
	modelMu      sync.RWMutex
	modelVersion atomic.Uint64

	// fleet runs every forward: it holds the model the shards read, and
	// the shards own the partitioners, the simulated devices and the
	// hot-vertex caches.
	fleet *shard.Fleet

	// admitMu orders admission against the drain flip: Predict admits
	// under RLock, Shutdown flips draining under Lock, so once Shutdown
	// holds the lock no new request can slip into the queue.
	admitMu  sync.RWMutex
	draining bool

	queue    chan *request
	stop     chan struct{} // closed once by Shutdown
	stopOnce sync.Once
	batches  chan []*request
	workerWG sync.WaitGroup
	// running counts dispatched-but-unfinished batches; the worker that
	// brings it to 0 wakes a filling batcher through idle.
	running atomic.Int64
	idle    chan struct{} // buffered(1): "running reached 0" since last read

	inflight atomic.Int64
	stats    *Stats
	drained  chan struct{} // closed when workers have fully exited

	// testHookBatchStart, when non-nil, runs before each micro-batch
	// executes. Tests use it to stall or pace workers deterministically
	// (overload is impossible to provoke reliably by timing alone on a
	// single-CPU host); production code never sets it.
	testHookBatchStart func()
}

// NewEngine freezes an inference context over ds and model, builds the
// serving fleet and starts the batcher plus the worker pool. Every shard
// worker reads model's parameters in place (the gTask engines only read
// them), so the caller must not write to model while the engine serves
// it; Reload swaps in a private copy of a new one.
func NewEngine(ds *dataset.Dataset, model *nn.Model, opts Options) (*Engine, error) {
	if model.Cfg.InDim != ds.Dim() {
		return nil, fmt.Errorf("serve: model expects %d input features, dataset has %d", model.Cfg.InDim, ds.Dim())
	}
	if model.Cfg.OutDim < ds.Classes() {
		return nil, fmt.Errorf("serve: model has %d outputs, dataset has %d classes", model.Cfg.OutDim, ds.Classes())
	}
	if err := opts.Validate(model.Cfg.Layers); err != nil {
		return nil, err
	}
	opts = opts.withDefaults(model.Cfg.Layers)
	e := &Engine{
		ds:      ds,
		csr:     ds.Graph.BuildCSRByDst(),
		cfg:     model.Cfg,
		opts:    opts,
		queue:   make(chan *request, opts.QueueDepth),
		stop:    make(chan struct{}),
		batches: make(chan []*request, opts.Workers),
		idle:    make(chan struct{}, 1),
		stats:   newStats(opts.BatchCap),
		drained: make(chan struct{}),
	}
	e.plan = opts.Plan
	if e.plan == nil {
		e.plan = e.tunePlan()
	}
	if !kernels.ValidPlanFor(model.Cfg.Kind, e.plan.GraphPlan) {
		return nil, fmt.Errorf("serve: plan %v cannot execute %v", e.plan.GraphPlan, model.Cfg.Kind)
	}
	cfg := shard.Config{
		Shards:      opts.Shards,
		Replicas:    opts.Replicas,
		Workers:     opts.Workers,
		Fanouts:     opts.Fanouts,
		Seed:        opts.Seed,
		CacheBudget: opts.CacheBudget,
		Timeout:     opts.ShardTimeout,
	}
	var err error
	if len(opts.ShardAddrs) > 0 {
		e.fleet, err = shard.NewRemoteFleet(e.csr, ds.Features, ds.Graph.NumTypes, model, e.plan, cfg, opts.ShardAddrs)
	} else {
		e.fleet, err = shard.NewFleet(e.csr, ds.Features, ds.Graph.NumTypes, model, e.plan, cfg)
	}
	if err != nil {
		return nil, err
	}
	if opts.CacheWarm > 0 {
		if err := e.warmCache(); err != nil {
			e.fleet.Close()
			return nil, fmt.Errorf("serve: cache warm-up: %w", err)
		}
	}
	go e.batcher()
	for w := 0; w < opts.Workers; w++ {
		e.workerWG.Add(1)
		go e.worker()
	}
	go func() {
		e.workerWG.Wait()
		// Workers gone → no caller can issue another shard RPC; drain the
		// fleet before declaring the engine drained so the in-flight = 0
		// invariant holds fleet-wide at shutdown.
		e.fleet.Close()
		close(e.drained)
	}()
	return e, nil
}

// tunePlan runs the one-shot joint optimization on a representative
// sampled subgraph — the §6.3 pattern: search once, reuse the plan for
// every request with an O(E) partition.
func (e *Engine) tunePlan() *joint.Result {
	v := e.ds.Graph.NumVertices
	n := e.opts.BatchCap * maxNodes
	if n > v {
		n = v
	}
	if n < 1 {
		n = 1
	}
	seeds := make([]int32, n)
	stride := v / n
	if stride < 1 {
		stride = 1
	}
	for i := range seeds {
		seeds[i] = int32(i * stride % v)
	}
	rng := tensor.NewRNG(e.opts.Seed ^ 0x73657276) // "serv"
	sub := graph.NeighborSample(e.ds.Graph, e.csr, seeds, e.opts.Fanouts, rng)
	return joint.Search(sub.Graph, e.cfg.Kind, e.cfg.Hidden, e.cfg.Hidden, e.cfg.NumTypes,
		joint.Options{Spec: device.A100()})
}

// Predict answers a node-classification query for the given parent-graph
// vertex ids. It blocks until the request's micro-batch completes, the
// context is done, or the request is shed at admission.
func (e *Engine) Predict(ctx context.Context, nodes []int32, wantLogits bool) (*Prediction, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("serve: empty node list")
	}
	if len(nodes) > maxNodes {
		return nil, fmt.Errorf("serve: %d nodes exceeds per-request cap %d", len(nodes), maxNodes)
	}
	v := int32(e.ds.Graph.NumVertices)
	for _, n := range nodes {
		if n < 0 || n >= v {
			return nil, fmt.Errorf("serve: node %d out of range [0,%d)", n, v)
		}
	}
	if _, ok := ctx.Deadline(); !ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, e.opts.Deadline)
		defer cancel()
	}
	r := &request{
		ctx:        ctx,
		nodes:      nodes,
		wantLogits: wantLogits,
		enqueued:   time.Now(),
		done:       make(chan result, 1),
	}

	e.admitMu.RLock()
	if e.draining {
		e.admitMu.RUnlock()
		e.stats.rejected.Add(1)
		return nil, ErrDraining
	}
	select {
	case e.queue <- r:
		e.inflight.Add(1)
		e.stats.admitted.Add(1)
		e.admitMu.RUnlock()
	default:
		e.admitMu.RUnlock()
		e.stats.shed.Add(1)
		return nil, ErrOverloaded
	}

	select {
	case res := <-r.done:
		if res.err != nil {
			return nil, res.err
		}
		return &res.pred, nil
	case <-ctx.Done():
		// The request stays in the pipeline; the worker finishes it (and
		// decrements in-flight) when its batch comes up.
		return nil, ctx.Err()
	}
}

// finish completes a request exactly once: records latency, decrements
// the in-flight count and delivers the result — in that order, so a caller
// holding its answer already finds itself counted in Stats.
func (e *Engine) finish(r *request, res result) {
	e.stats.recordDone(time.Since(r.enqueued))
	e.inflight.Add(-1)
	select {
	case r.done <- res:
	default: // already finished (cannot happen: finish is called once)
	}
}

// cancel resolves a request whose context expired before its micro-batch
// ran: the error is delivered and in-flight decremented, but the request
// counts as canceled, not completed — its latency is its queue timeout,
// which must not pollute the served-latency histogram.
func (e *Engine) cancel(r *request, err error) {
	select {
	case r.done <- result{err: err}:
	default:
	}
	e.stats.recordCanceled()
	e.inflight.Add(-1)
}

// worker executes micro-batches. It holds the model read-lock across each
// whole batch so every shard RPC of the batch carries one coherent
// version: the version tags every cache operation, so a reload can
// neither serve the batch stale rows nor admit its rows into the
// refreshed cache. The last batch to finish wakes the batcher, which then
// dispatches whatever it has been filling.
func (e *Engine) worker() {
	defer e.workerWG.Done()
	for batch := range e.batches {
		e.modelMu.RLock()
		e.runBatch(batch, e.modelVersion.Load())
		e.modelMu.RUnlock()
		if e.running.Add(-1) == 0 {
			select {
			case e.idle <- struct{}{}:
			default: // a wake-up is already pending
			}
		}
	}
}

// Reload swaps in newly trained parameters for the same architecture. It
// takes a private copy of m (the caller may go on training m, and nothing
// a shard may still be reading is written), then, under the model write
// lock — which waits out every in-flight batch and holds new ones back —
// publishes the copy to the fleet, bumps the model version and flushes
// every shard's hot-vertex cache to it. The next batch reads the new
// parameters and carries the new version, so no cache probe tagged with it
// can race the flush; a hedged loser its batch abandoned finishes on the
// old, now immutable, parameters and its old-version rows are not admitted.
func (e *Engine) Reload(m *nn.Model) error {
	if e.fleet.Remote() {
		// Remote shards hold their own copy of the checkpoint, validated
		// against the router's by parameter hash at handshake; swapping
		// the router's copy alone would break bitwise parity. Roll the
		// daemons and restart instead.
		return fmt.Errorf("serve: reload is not supported over TCP shards (daemons own their checkpoints)")
	}
	if m.Cfg != e.cfg {
		return fmt.Errorf("serve: reload across architectures: %+v vs %+v", m.Cfg, e.cfg)
	}
	next, err := nn.NewModel(e.cfg)
	if err != nil {
		return err
	}
	if err := next.CopyParamsFrom(m); err != nil {
		return err
	}
	e.modelMu.Lock()
	defer e.modelMu.Unlock()
	e.fleet.SetModel(next)
	e.fleet.InvalidateTo(e.modelVersion.Add(1))
	return nil
}

// runBatch is one coalesced forward pass: dedupe seeds across requests,
// run the fleet's leveled deterministic forward under model version ver,
// and demultiplex logits rows back to each caller.
func (e *Engine) runBatch(batch []*request, ver uint64) {
	if h := e.testHookBatchStart; h != nil {
		h()
	}
	// Drop requests whose deadline already passed while queued: they are
	// canceled, never completed, and their timed-out queue latencies stay
	// out of the served-latency histogram. A live request's wait from
	// admission to here is its queue wait.
	live := batch[:0]
	for _, r := range batch {
		if err := r.ctx.Err(); err != nil {
			e.cancel(r, err)
			continue
		}
		e.stats.queueWait.Observe(time.Since(r.enqueued))
		live = append(live, r)
	}
	if len(live) == 0 {
		return
	}
	e.stats.recordBatch(len(live))
	e.execBatch(live, ver, true)
}

// execBatch executes one micro-batch over live requests. An injected
// serve.batch latency fault is waited out — a straggler changes timing,
// never the outcome. When the batch fails — an injected error or
// corruption, or the forward pass itself erroring — it degrades
// gracefully: one retry at half batch size (fresh fault draws) while
// mayRetry holds, after which the requests are failed.
func (e *Engine) execBatch(live []*request, ver uint64, mayRetry bool) {
	if err := fault.CheckErr(fault.SiteServeBatch); err != nil {
		e.stats.batchFaults.Add(1)
		e.failBatch(live, ver, mayRetry, err)
		return
	}

	batchID := obs.NewID()
	spBatch := obs.Begin(obs.StageBatch, batchID)

	// Dedupe seeds across the batch, remembering each request's nodes.
	// The mux direction of coalescing counts as demux time (same
	// bookkeeping, opposite direction).
	sp := obs.Begin(obs.StageDemux, batchID)
	seedOf := make(map[int32]struct{}, len(live)*4)
	var seeds []int32
	for _, r := range live {
		for _, n := range r.nodes {
			if _, ok := seedOf[n]; !ok {
				seedOf[n] = struct{}{}
				seeds = append(seeds, n)
			}
		}
	}
	sp.End()

	// The sample span opens here, at the boundary, and is handed into the
	// forward so the call transition itself stays inside a span (the trace
	// must decompose the batch with no systematic gaps).
	logits, rowOf, err := e.fleet.Forward(batchID, ver, seeds, obs.Begin(obs.StageSample, batchID))
	if err != nil {
		spBatch.End()
		e.stats.batchFaults.Add(1)
		e.failBatch(live, ver, mayRetry, fmt.Errorf("serve: forward failed: %w", err))
		return
	}

	// The replies go out after both spans end, so a trace read as soon as
	// a reply arrives holds the whole batch.
	sp = obs.Begin(obs.StageDemux, batchID)
	preds := make([]Prediction, len(live))
	for i, r := range live {
		pred := Prediction{Classes: make([]int32, len(r.nodes))}
		if r.wantLogits {
			pred.Logits = make([][]float32, len(r.nodes))
		}
		for j, n := range r.nodes {
			lr := logits.Row(int(rowOf[n]))
			pred.Classes[j] = argmax(lr)
			if r.wantLogits {
				pred.Logits[j] = append([]float32(nil), lr...)
			}
		}
		preds[i] = pred
	}
	sp.End()
	spBatch.End()
	tensor.Put(logits)
	for i, r := range live {
		e.finish(r, result{pred: preds[i]})
	}
}

// failBatch resolves a failed micro-batch. With retry budget left it
// splits the batch in half and re-executes each half once — the graceful-
// degradation path: a fault that poisons a big coalesced batch should not
// fail every rider when smaller batches would have succeeded. Out of
// budget, every request is completed with the failure.
func (e *Engine) failBatch(live []*request, ver uint64, mayRetry bool, err error) {
	if mayRetry {
		e.stats.degraded.Add(1)
		mid := (len(live) + 1) / 2
		e.execBatch(live[:mid], ver, false)
		if mid < len(live) {
			e.execBatch(live[mid:], ver, false)
		}
		return
	}
	for _, r := range live {
		e.finish(r, result{err: err})
	}
}

func argmax(row []float32) int32 {
	best, bi := row[0], 0
	for j, v := range row[1:] {
		if v > best {
			best, bi = v, j+1
		}
	}
	return int32(bi)
}

// Shutdown drains the engine: new requests are rejected with ErrDraining,
// everything already admitted is answered, the batcher flushes the queue
// at once without waiting for running batches, and workers exit once the
// last micro-batch completes. Returns ctx.Err() if the deadline passes first.
func (e *Engine) Shutdown(ctx context.Context) error {
	e.admitMu.Lock()
	e.draining = true
	e.admitMu.Unlock()
	e.stopOnce.Do(func() { close(e.stop) })
	select {
	case <-e.drained:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Draining reports whether Shutdown has begun.
func (e *Engine) Draining() bool {
	e.admitMu.RLock()
	defer e.admitMu.RUnlock()
	return e.draining
}

// InFlight returns the number of admitted-but-unanswered requests.
func (e *Engine) InFlight() int64 { return e.inflight.Load() }

// QueueDepth returns the current admission-queue occupancy.
func (e *Engine) QueueDepth() int { return len(e.queue) }

// Plan exposes the frozen joint plan (for logging and tests).
func (e *Engine) Plan() *joint.Result { return e.plan }

// Options exposes the resolved options.
func (e *Engine) Options() Options { return e.opts }

// Stats returns a point-in-time metrics snapshot (the /statsz payload).
func (e *Engine) Stats() Snapshot {
	snap := e.stats.snapshot(e.inflight.Load(), len(e.queue))
	if cs, ok := e.cacheStats(); ok {
		snap.CacheEnabled = true
		snap.CacheHits = cs.Hits
		snap.CacheMisses = cs.Misses
		if total := cs.Hits + cs.Misses; total > 0 {
			snap.CacheHitRate = float64(cs.Hits) / float64(total)
		}
		snap.CacheAdmitted = cs.Admitted
		snap.CacheEvicted = cs.Evicted
		snap.CacheRejected = cs.Rejected
		snap.CacheFlushes = cs.Flushes
		snap.CacheBytesResident = cs.Bytes
		snap.CacheEntries = cs.Entries
		snap.CacheCapacityBytes = cs.Capacity
	}
	snap.Shards = e.fleet.Size()
	snap.ShardReplicas = e.fleet.Replicas()
	snap.PerShard = e.fleet.Stats()
	snap.ShardRetries, snap.ShardHedges, snap.ShardTimeouts, snap.ShardFailures = e.fleet.Resilience()
	snap.ShardInFlight = e.fleet.InFlight()
	dev, _ := e.DeviceStats()
	snap.DeviceFLOPs = dev.FLOPs
	if snap.Completed > 0 {
		snap.FLOPsPerRequest = dev.FLOPs / float64(snap.Completed)
	}
	return snap
}

// Cache exposes the hot-vertex cache of a one-node in-process fleet (nil
// when disabled, and nil on any larger or remote fleet — each shard owns
// its range's cache); tests and the benchmark read its counters.
func (e *Engine) Cache() *hotcache.Cache { return e.fleet.Cache() }

// Fleet exposes the serving fleet.
func (e *Engine) Fleet() *shard.Fleet { return e.fleet }

// cacheStats returns the caching accounting in effect, aggregated across
// the in-process shards' caches. Remote shards size and report their own.
func (e *Engine) cacheStats() (hotcache.Stats, bool) {
	if e.fleet.Remote() || e.opts.CacheBudget <= 0 {
		return hotcache.Stats{}, false
	}
	return e.fleet.CacheStats(), true
}
