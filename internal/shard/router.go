package shard

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"wisegraph/internal/device"
	"wisegraph/internal/graph"
	"wisegraph/internal/hotcache"
	"wisegraph/internal/joint"
	"wisegraph/internal/nn"
	"wisegraph/internal/obs"
	"wisegraph/internal/retry"
	"wisegraph/internal/shard/wire"
	"wisegraph/internal/tensor"
)

// Config sizes a fleet. The serve engine fills it from its own resolved
// options.
type Config struct {
	// Shards is the span count — how many contiguous vertex ranges the
	// graph splits into (min 1).
	Shards int
	// Replicas is how many interchangeable nodes serve each span (min 1;
	// 1 = unreplicated). Every replica of a span holds the same graph
	// slice, plan and parameters, so reads fail over and hedge freely —
	// both RPC kinds are pure functions of (request, model version), so
	// any replica's answer is bitwise the answer.
	Replicas int
	// Workers is how many RPCs each shard node runs at once.
	Workers int
	// Fanouts are the per-layer sampling fan-outs, Seed the deterministic
	// sampler key — identical on every node, which is what the
	// bitwise-parity guarantee rests on.
	Fanouts []int
	Seed    uint64
	// CacheBudget is the PER-SHARD hot-vertex cache budget in bytes: each
	// simulated node brings its own RAM, so fleet cache capacity scales
	// with the shard count — the aggregate-capacity win that lets a fleet
	// hold a hot set no single node can.
	CacheBudget int64
	// Timeout is the per-RPC deadline (default 250ms): an attempt with no
	// reply by then ends in TransportError{Timeout: true} and is retried.
	// The replica hedge delay derives from it (Timeout/4).
	Timeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.Shards < 1 {
		c.Shards = 1
	}
	if c.Replicas < 1 {
		c.Replicas = 1
	}
	if c.Workers < 1 {
		c.Workers = 1
	}
	if c.Timeout <= 0 {
		c.Timeout = 250 * time.Millisecond
	}
	return c
}

// Per-replica health scoring: a score in (healthFloor, 1], recovered
// multiplicatively toward 1 on success and halved on transport failure.
// Replica order quantizes the score to eighths so healthy replicas stay
// interchangeable (rotation spreads load) while a flapping daemon sinks
// below the pack after one failure and climbs back only by answering.
const (
	healthRecover = 0.25
	healthDecay   = 0.5
	healthFloor   = 1.0 / 1024
)

// replicaHealth is one replica's routing score plus win/fail counters.
type replicaHealth struct {
	bits  atomic.Uint64 // math.Float64bits of the score
	wins  atomic.Uint64
	fails atomic.Uint64
}

func newReplicaHealth() *replicaHealth {
	h := &replicaHealth{}
	h.bits.Store(math.Float64bits(1))
	return h
}

func (h *replicaHealth) score() float64 { return math.Float64frombits(h.bits.Load()) }

func (h *replicaHealth) good() {
	h.wins.Add(1)
	for {
		old := h.bits.Load()
		s := math.Float64frombits(old)
		s += (1 - s) * healthRecover
		if h.bits.CompareAndSwap(old, math.Float64bits(s)) {
			return
		}
	}
}

func (h *replicaHealth) bad() {
	h.fails.Add(1)
	for {
		old := h.bits.Load()
		s := math.Float64frombits(old) * healthDecay
		if s < healthFloor {
			s = healthFloor
		}
		if h.bits.CompareAndSwap(old, math.Float64bits(s)) {
			return
		}
	}
}

// shardStats is the router-side accounting for one span. The resilience
// counters mean one thing each, whether the cause was real or injected:
//
//   - retries: an RPC re-issued after a failed attempt — failover to the
//     span's next replica, or the next round of the retry ladder.
//   - hedges: a speculative issue to another replica while an earlier
//     attempt is still pending. Never fires with one replica.
//   - timeouts: attempts that ended in a transport deadline
//     (TransportError.Timeout).
//   - failures: calls that exhausted the ladder or hit a permanent
//     application or malformed-reply error.
type shardStats struct {
	rot      atomic.Uint64 // rotation spreading load across equal-health replicas
	rpcs     atomic.Uint64
	computes atomic.Uint64
	retries  atomic.Uint64
	hedges   atomic.Uint64
	timeouts atomic.Uint64
	failures atomic.Uint64
	bytesIn  atomic.Uint64 // reply bytes router←shard
	bytesOut atomic.Uint64 // request bytes router→shard
	lat      obs.Histogram
}

// ReplicaStats is one replica's routing view: its health score and how
// often it won (answered a call the router used) or failed.
type ReplicaStats struct {
	Replica int     `json:"replica"`
	Health  float64 `json:"health"`
	Wins    uint64  `json:"wins"`
	Fails   uint64  `json:"fails"`
}

// Stats is one span's externally visible snapshot: ownership range,
// router-side RPC traffic and resilience counters, the shard's cache
// accounting, and the per-replica health scores. wgserve-bench records
// one per span in its -json output.
type Stats struct {
	ID       int     `json:"id"`
	Lo       int32   `json:"lo"`
	Hi       int32   `json:"hi"`
	RPCs     uint64  `json:"rpcs"`
	Computes uint64  `json:"computes"`
	P50Ms    float64 `json:"p50Ms"`
	P99Ms    float64 `json:"p99Ms"`
	Retries  uint64  `json:"retries"`
	Hedges   uint64  `json:"hedges"`
	Timeouts uint64  `json:"timeouts"`
	Failures uint64  `json:"failures"`
	BytesIn  uint64  `json:"bytesIn"`
	BytesOut uint64  `json:"bytesOut"`
	InFlight int64   `json:"inFlight"`

	CacheHits    uint64 `json:"cacheHits"`
	CacheMisses  uint64 `json:"cacheMisses"`
	CacheBytes   int64  `json:"cacheBytes"`
	CacheEntries int    `json:"cacheEntries"`

	Replicas []ReplicaStats `json:"replicas,omitempty"`
}

// Fleet is the router front-end plus its shards: it partitions the vertex
// space, fans each micro-batch's leveled frontier out to the owners,
// aggregates the partial per-layer rows, and absorbs slow or failed
// shards through the hedging ladder. One Fleet serves one frozen
// (graph, features, plan); the model is swapped whole by SetModel, never
// written through.
//
// A fleet is either in-process (NewFleet: it owns the shards, conns are
// the shards themselves) or remote (NewRemoteFleet: shards live in
// wisegraph-shard daemons, conns are tcpConns). All routing flows through
// Conn, so Forward and the parity guarantee are transport-blind.
//
// Everything replica-shaped is indexed [span][replica]: conns[s][r] is
// replica r of span s, health[s][r] its routing score. Unreplicated
// fleets are the R=1 degenerate case — no hedge timers, no failover.
type Fleet struct {
	cfg    Config
	csr    *graph.CSR
	feats  *tensor.Tensor
	ntypes int
	// model is the cell every in-process shard reads its parameters from
	// (see Shard.model); a remote fleet reads it for the shape alone.
	model atomic.Pointer[nn.Model]
	plan  *joint.Result

	bounds []int32
	shards [][]*Shard // [span][replica]; every group empty for a remote fleet
	remote []*tcpConn // nil for an in-process fleet
	conns  [][]Conn   // every endpoint behind its faultConn
	health [][]*replicaHealth
	stats  []*shardStats
	// frontiers pools the *frontier bitmaps Forward unions vertex sets in;
	// every one is all zero while it sits here.
	frontiers sync.Pool
}

// newFleet is the one constructor body: it checks cfg against the model,
// fixes the boundaries and fills every [span][replica] slot from dial,
// which builds one endpoint, records it on f (shards or remote) and
// returns it with the address its transport errors name. A failed dial
// closes what was built before it.
func newFleet(csr *graph.CSR, feats *tensor.Tensor, ntypes int, src *nn.Model, plan *joint.Result, cfg Config,
	dial func(f *Fleet, span, replica int) (Conn, string, error)) (*Fleet, error) {
	if len(cfg.Fanouts) != src.Cfg.Layers {
		return nil, fmt.Errorf("shard: %d fan-outs for a %d-layer model", len(cfg.Fanouts), src.Cfg.Layers)
	}
	f := &Fleet{
		cfg: cfg, csr: csr, feats: feats, ntypes: ntypes, plan: plan,
		bounds: Boundaries(csr, cfg.Shards),
		shards: make([][]*Shard, cfg.Shards),
	}
	f.model.Store(src)
	words := (len(csr.RowPtr) - 1 + 63) / 64
	f.frontiers.New = func() any { return &frontier{make([]uint64, words)} }
	for s := 0; s < cfg.Shards; s++ {
		var conns []Conn
		var hs []*replicaHealth
		for r := 0; r < cfg.Replicas; r++ {
			c, addr, err := dial(f, s, r)
			if err != nil {
				f.Close()
				return nil, err
			}
			conns = append(conns, &faultConn{Conn: c, addr: addr, timeout: cfg.Timeout})
			hs = append(hs, newReplicaHealth())
		}
		f.conns = append(f.conns, conns)
		f.health = append(f.health, hs)
		f.stats = append(f.stats, &shardStats{})
	}
	return f, nil
}

// NewFleet splits csr's vertex space across cfg.Shards spans, each served
// by cfg.Replicas in-process shard nodes. ntypes is the parent graph's
// edge-type count (every shard-rebuilt block declares it).
func NewFleet(csr *graph.CSR, feats *tensor.Tensor, ntypes int, src *nn.Model, plan *joint.Result, cfg Config) (*Fleet, error) {
	return newFleet(csr, feats, ntypes, src, plan, cfg.withDefaults(),
		func(f *Fleet, s, r int) (Conn, string, error) {
			sh, err := newShard(s, f.bounds[s], f.bounds[s+1], f)
			if err != nil {
				return nil, "", err
			}
			f.shards[s] = append(f.shards[s], sh)
			return sh, fmt.Sprintf("%d/%d", s, r), nil
		})
}

// NewRemoteFleet builds a router over wisegraph-shard daemons. The flat
// address list groups into cfg.Replicas-way replica sets per span
// (AssignReplicas order: all replicas of span 0, then span 1, ...). The
// router derives the same boundaries the daemons will recompute, then
// dials each daemon with a Hello carrying the full fleet configuration
// (identity incl. replica id, bounds, graph/model shape, sampler seed,
// marshaled plan, parameter hash) — any daemon that cannot serve
// bitwise-identically rejects it and construction fails.
func NewRemoteFleet(csr *graph.CSR, feats *tensor.Tensor, ntypes int, src *nn.Model, plan *joint.Result, cfg Config, addrs []string) (*Fleet, error) {
	cfg = cfg.withDefaults()
	groups, err := AssignReplicas(addrs, cfg.Replicas)
	if err != nil {
		return nil, err
	}
	cfg.Shards = len(groups)
	planBytes, err := plan.MarshalPlan()
	if err != nil {
		return nil, fmt.Errorf("shard: marshal plan: %w", err)
	}
	fanouts := make([]int32, len(cfg.Fanouts))
	for i, fo := range cfg.Fanouts {
		fanouts[i] = int32(fo)
	}
	sum := ParamSum(src)
	return newFleet(csr, feats, ntypes, src, plan, cfg,
		func(f *Fleet, s, r int) (Conn, string, error) {
			c, err := newTCPConn(groups[s][r], &wire.Hello{
				Proto:       wire.ProtoVersion,
				ShardID:     int32(s),
				Shards:      int32(cfg.Shards),
				Replica:     int32(r),
				Replicas:    int32(cfg.Replicas),
				Lo:          f.bounds[s],
				Hi:          f.bounds[s+1],
				NumVertices: int64(len(csr.RowPtr) - 1),
				NumEdges:    int64(len(csr.Col)),
				NumTypes:    int32(ntypes),
				InDim:       int32(src.Cfg.InDim),
				Hidden:      int32(src.Cfg.Hidden),
				OutDim:      int32(src.Cfg.OutDim),
				Layers:      int32(src.Cfg.Layers),
				Fanouts:     fanouts,
				Seed:        cfg.Seed,
				ParamSum:    sum,
				Kind:        src.Cfg.Kind.String(),
				Plan:        planBytes,
			}, cfg.Timeout)
			if err != nil {
				return nil, "", err
			}
			f.remote = append(f.remote, c)
			return c, c.addr, nil
		})
}

// Remote reports whether the shards live in separate processes.
func (f *Fleet) Remote() bool { return len(f.remote) > 0 }

// Close drains every in-process shard (waiting out RPCs still running,
// such as abandoned hedged losers) and drops every remote connection.
// Callers must guarantee no Forward is in flight or will be issued again.
func (f *Fleet) Close() {
	for _, group := range f.shards {
		for _, s := range group {
			s.Close()
		}
	}
	for _, c := range f.remote {
		c.close()
	}
}

// Size returns the span count.
func (f *Fleet) Size() int { return len(f.conns) }

// Replicas returns the per-span replica count.
func (f *Fleet) Replicas() int { return f.cfg.Replicas }

// Bounds returns the contiguous ownership boundaries (len Size()+1).
func (f *Fleet) Bounds() []int32 { return f.bounds }

// InFlight sums admitted-but-unanswered RPCs across all shards — the
// shard half of the fleet-wide drain invariant (the router half is the
// serve engine's own in-flight count).
func (f *Fleet) InFlight() int64 {
	var n int64
	for _, group := range f.shards {
		for _, s := range group {
			n += s.InFlight()
		}
	}
	return n
}

// SetModel publishes m as the parameter set every in-process shard reads
// from its next RPC on; an RPC already running finishes on the model it
// loaded. m must have the architecture the fleet was built with and must
// not be written to afterwards. serve.Reload calls it, then InvalidateTo,
// inside its model critical section.
func (f *Fleet) SetModel(m *nn.Model) { f.model.Store(m) }

// InvalidateTo flushes every in-process shard's cache to the new model
// version. serve.Reload calls it inside its model critical section, so no
// batch tagged with the new version can race the sweep. Remote shards own
// their checkpoints, so reload (and with it this sweep) is rejected one
// layer up for remote fleets; here it is simply a no-op.
func (f *Fleet) InvalidateTo(ver uint64) {
	for _, group := range f.shards {
		for _, s := range group {
			s.cache.InvalidateTo(ver)
		}
	}
}

// Cache returns the node's hot-vertex cache when the fleet is one
// in-process node (1 shard × 1 replica), nil otherwise (and nil when that
// node's cache is disabled).
func (f *Fleet) Cache() *hotcache.Cache {
	if len(f.shards) == 1 && len(f.shards[0]) == 1 {
		return f.shards[0][0].cache
	}
	return nil
}

// CacheStats aggregates the per-shard caches into one fleet-wide view
// (capacity sums too: each shard — every replica — brings its own
// budget).
func (f *Fleet) CacheStats() hotcache.Stats {
	var t hotcache.Stats
	for _, group := range f.shards {
		for _, s := range group {
			cs := s.cache.Snapshot()
			t.Hits += cs.Hits
			t.Misses += cs.Misses
			t.Admitted += cs.Admitted
			t.Evicted += cs.Evicted
			t.Rejected += cs.Rejected
			t.Flushes += cs.Flushes
			t.Bytes += cs.Bytes
			t.Entries += cs.Entries
			t.Capacity += cs.Capacity
		}
	}
	return t
}

// Devices returns every shard worker's simulated device so the serve
// metrics can aggregate fleet compute exactly like worker compute.
func (f *Fleet) Devices() []*device.Device {
	var out []*device.Device
	for _, group := range f.shards {
		for _, s := range group {
			out = append(out, s.devs...)
		}
	}
	return out
}

// Health returns replica r of span s's current routing score (tests and
// metrics read it; routing itself goes through replicaOrder).
func (f *Fleet) Health(s, r int) float64 { return f.health[s][r].score() }

// Stats snapshots every span. For a remote fleet the shard-side fields
// (in-flight, cache) stay zero — those live in the daemons, which serve
// them on their own /metrics endpoint; the router-side traffic and
// resilience counters are exact either way (byte counts are real encoded
// frame sizes on both transports, booked once per winning attempt).
func (f *Fleet) Stats() []Stats {
	out := make([]Stats, len(f.stats))
	for i, st := range f.stats {
		o := Stats{
			ID: i, Lo: f.bounds[i], Hi: f.bounds[i+1],
			RPCs:     st.rpcs.Load(),
			Computes: st.computes.Load(),
			P50Ms:    float64(st.lat.Quantile(0.50)) / 1e6,
			P99Ms:    float64(st.lat.Quantile(0.99)) / 1e6,
			Retries:  st.retries.Load(),
			Hedges:   st.hedges.Load(),
			Timeouts: st.timeouts.Load(),
			Failures: st.failures.Load(),
			BytesIn:  st.bytesIn.Load(),
			BytesOut: st.bytesOut.Load(),
		}
		for r, h := range f.health[i] {
			o.Replicas = append(o.Replicas, ReplicaStats{
				Replica: r,
				Health:  h.score(),
				Wins:    h.wins.Load(),
				Fails:   h.fails.Load(),
			})
		}
		for _, s := range f.shards[i] {
			cs := s.cache.Snapshot()
			o.InFlight += s.InFlight()
			o.CacheHits += cs.Hits
			o.CacheMisses += cs.Misses
			o.CacheBytes += cs.Bytes
			o.CacheEntries += cs.Entries
		}
		out[i] = o
	}
	return out
}

// Resilience sums the router-side resilience counters across spans.
func (f *Fleet) Resilience() (retries, hedges, timeouts, failures uint64) {
	for _, st := range f.stats {
		retries += st.retries.Load()
		hedges += st.hedges.Load()
		timeouts += st.timeouts.Load()
		failures += st.failures.Load()
	}
	return
}

// replicaOrder ranks span s's replicas for the next issue: healthiest
// first with scores quantized to eighths, so equally healthy replicas
// stay interchangeable and the rotation counter spreads load across them
// instead of hammering replica 0. The counter is PER SPAN: spans issue
// their calls in near-lockstep (one call per owning span, every level),
// so a fleet-global counter would hand every span the same parity
// forever and one replica of each span would never see traffic.
func (f *Fleet) replicaOrder(s int) []int {
	n := len(f.conns[s])
	if n == 1 {
		return []int{0}
	}
	rot := int(f.stats[s].rot.Add(1))
	order := make([]int, n)
	for i := range order {
		order[i] = (rot + i) % n
	}
	q := func(r int) int { return int(f.health[s][r].score() * 8) }
	sort.SliceStable(order, func(a, b int) bool { return q(order[a]) > q(order[b]) })
	return order
}

// observe feeds one attempt's outcome into the replica's health score
// and books a transport deadline against the span's timeout counter.
// Only transport errors demote: an application error from the shard
// (ownership or protocol violation) is a deterministic property of the
// request — every replica would answer it identically, so it says
// nothing about this replica's availability.
func (f *Fleet) observe(s, r int, err error) {
	h := f.health[s][r]
	var te *TransportError
	switch {
	case err == nil:
		h.good()
	case errors.As(err, &te):
		h.bad()
		if te.Timeout {
			f.stats[s].timeouts.Add(1)
		}
	}
}

// issue runs one RPC attempt against span s's replica set: the healthiest
// replica fires first; a real wall-clock hedge (Timeout/4) launches the
// next-ranked replica if the leader stalls, and an error from any
// launched replica fails over to the next immediately. First success
// wins — the shared context is canceled so losers stop waiting (the TCP
// transport frees the window slot and later drops the stale reply by
// reqid; an in-process loser stops waiting for a worker, or runs to the
// end unheard). Only when every replica has failed does an error surface
// to the retry ladder above. With one replica this collapses to a plain
// call on the caller's goroutine — no timer, no goroutine.
func issue[R any](ctx context.Context, f *Fleet, s int, do func(context.Context, Conn) (*R, error)) (*R, error) {
	order := f.replicaOrder(s)
	conns := f.conns[s]
	if len(order) == 1 {
		v, err := do(ctx, conns[order[0]])
		f.observe(s, order[0], err)
		return v, err
	}

	// Attempts run on goroutines of their own, so the caller's stage track
	// stays behind.
	ctx, cancel := context.WithCancel(obs.WithTrack(ctx, nil))
	defer cancel()
	type result struct {
		r   int
		v   *R
		err error
	}
	ch := make(chan result, len(order))
	launched, pending := 0, 0
	launch := func() {
		r := order[launched]
		launched++
		pending++
		go func() {
			v, err := do(ctx, conns[r])
			ch <- result{r: r, v: v, err: err}
		}()
	}
	launch()
	hedge := time.NewTimer(f.cfg.Timeout / 4)
	defer hedge.Stop()

	var appErr, transErr error
	for {
		select {
		case <-hedge.C:
			if launched < len(order) {
				f.stats[s].hedges.Add(1)
				launch()
				hedge.Reset(f.cfg.Timeout / 4)
			}
		case res := <-ch:
			pending--
			f.observe(s, res.r, res.err)
			if res.err == nil {
				return res.v, nil
			}
			if isTransport(res.err) {
				transErr = res.err
			} else if appErr == nil {
				appErr = res.err
			}
			if launched < len(order) {
				// Failover: don't wait for the hedge timer once a replica
				// has definitively failed.
				f.stats[s].retries.Add(1)
				launch()
			} else if pending == 0 {
				// All replicas answered with errors. A deterministic
				// application error beats a transport error: it tells the
				// caller the request itself is wrong, and retrying won't
				// change it.
				if appErr != nil {
					return nil, appErr
				}
				return nil, transErr
			}
		}
	}
}

// isTransport is the ladder's retryable predicate: a TransportError (dial
// failure, broken stream, deadline — real or from faultConn) is worth
// another attempt because both RPC kinds are idempotent; an application
// error is a deterministic property of the request and surfaces at once.
func isTransport(err error) bool {
	var te *TransportError
	return errors.As(err, &te)
}

// call runs one RPC through the retry ladder — retry.Attempts rounds of
// issue, backing off between them — and returns the winning attempt's
// reply. do must be idempotent (both RPC kinds are). A later round fires
// only when every replica of the span failed the one before.
func call[R any](ctx context.Context, f *Fleet, s int, do func(context.Context, Conn) (*R, error)) (*R, error) {
	st := f.stats[s]
	seq := st.rpcs.Add(1) // also the jitter key: distinct per concurrent call
	t0 := time.Now()
	defer func() { st.lat.Observe(time.Since(t0)) }()
	var v *R
	err := retry.Do(seq, isTransport, func(round int) (err error) {
		if round > 0 {
			st.retries.Add(1)
		}
		v, err = issue(ctx, f, s, do)
		return err
	})
	if err != nil {
		st.failures.Add(1)
		return nil, err
	}
	return v, nil
}

// callExpand runs one Expand through the full ladder and returns ONLY the
// winning attempt's reply — concurrent hedged losers never leak a reply
// out, so the caller books request/reply bytes exactly once per call.
func (f *Fleet) callExpand(ctx context.Context, s int, args *ExpandArgs) (*ExpandReply, error) {
	return call(ctx, f, s, func(ctx context.Context, c Conn) (*ExpandReply, error) { return c.Expand(ctx, args) })
}

// callCompute is callExpand's Compute twin.
func (f *Fleet) callCompute(ctx context.Context, s int, args *ComputeArgs) (*ComputeReply, error) {
	return call(ctx, f, s, func(ctx context.Context, c Conn) (*ComputeReply, error) { return c.Compute(ctx, args) })
}

// ownerSpan is one shard's contiguous slice of a sorted vertex list.
type ownerSpan struct {
	shard  int
	lo, hi int // index range into the sorted list
}

// spansOf partitions a sorted vertex list into per-owner spans — the
// payoff of contiguous placement: ownership routing is a linear walk, no
// per-vertex map.
func (f *Fleet) spansOf(verts []int32) []ownerSpan {
	var out []ownerSpan
	i := 0
	for s := 0; s+1 < len(f.bounds) && i < len(verts); s++ {
		hi := f.bounds[s+1]
		j := i
		for j < len(verts) && verts[j] < hi {
			j++
		}
		if j > i {
			out = append(out, ownerSpan{shard: s, lo: i, hi: j})
		}
		i = j
	}
	return out
}

// rlevel is the router's view of one activation level: the sorted vertex
// set, hit flags, per-miss sampled sources, and the level's flat rows.
// hit, srcs and rows are filled by expandLevel. Level 0 is its vertex set
// and nothing else: feature rows stay on the shard that owns them.
type rlevel struct {
	verts []int32
	hit   []bool
	srcs  [][]int32
	rows  []float32
	miss  int
}

func newRLevel(verts []int32) *rlevel {
	vs := append([]int32(nil), verts...)
	slices.Sort(vs)
	return &rlevel{verts: vs}
}

// markMisses marks in fr what the misses among verts[lo:hi] read one level
// down — each miss itself (its own row feeds the self term) and its
// sampled sources — and returns how many marks it made.
func (rl *rlevel) markMisses(fr *frontier, lo, hi int) int {
	n := 0
	for k := lo; k < hi; k++ {
		if rl.hit[k] {
			continue
		}
		srcs := rl.srcs[k]
		fr.mark(rl.verts[k])
		for _, src := range srcs {
			fr.mark(src)
		}
		n += 1 + len(srcs)
	}
	return n
}

// frontier is a set of vertex ids as a bitmap of V bits, the router's one
// union primitive: mark every id of a level's sources, then drain the
// sorted, deduplicated union in O(V/64) words. A frontier is taken by
// Fleet.frontier and goes back to the pool in Fleet.drain, with no return
// in between, so every frontier in the pool is all zero.
type frontier struct{ words []uint64 }

// frontier takes an empty frontier from the pool.
func (f *Fleet) frontier() *frontier { return f.frontiers.Get().(*frontier) }

// drain returns fr's ids, ascending, in a fresh slice of capacity n — an
// upper bound on the marks made — and puts fr, now empty, back.
func (f *Fleet) drain(fr *frontier, n int) []int32 {
	out := fr.drain(make([]int32, 0, n))
	f.frontiers.Put(fr)
	return out
}

// mark adds v to the set.
func (fr *frontier) mark(v int32) { fr.words[v>>6] |= 1 << (uint(v) & 63) }

// drain appends the set's ids to dst in ascending order and empties the
// set, zeroing each word it reads.
func (fr *frontier) drain(dst []int32) []int32 {
	for i, w := range fr.words {
		if w == 0 {
			continue
		}
		fr.words[i] = 0
		for ; w != 0; w &= w - 1 {
			dst = append(dst, int32(i<<6|bits.TrailingZeros64(w)))
		}
	}
	return dst
}

// indexOf maps each vertex of a sorted level to its row.
func indexOf(verts []int32) map[int32]int32 {
	idx := make(map[int32]int32, len(verts))
	for i, v := range verts {
		idx[v] = int32(i)
	}
	return idx
}

// Forward is the leveled deterministic forward: it computes logits for
// the deduped seed set and returns them over the sorted seed space plus
// the parent-id → row map.
//
// A micro-batch runs as a stack of per-layer blocks instead of one flat
// unioned subgraph: level 0 is the input features, level l the
// post-activation outputs of layer l-1, and block l aggregates level l-1
// rows into level l targets over deterministically sampled edges
// (graph.DetSample, keyed by (Config.Seed, vertex, fan-out) alone). That
// makes every row a pure function f(v, l) of the vertex, the level, the
// frozen seed, the graph and the model parameters — independent of batch
// composition, shard count, replica and worker count — which is
// the property that makes the hot-vertex cache sound: a hit returns
// exactly the bytes a miss would recompute, so cache size can change
// performance but never output bits.
//
// Bitwise invariance additionally needs the per-destination float
// summation order inside a block to be canonical. Every Compute's input
// set is sorted by parent id and each target's edges are emitted
// contiguously in DetSample order, so every sort key the partitioner can
// use (dst id, src id, edge id, edge type, dst degree — EnumeratePlans
// never sorts by source degree, the only composition-dependent attribute)
// induces the same per-destination edge order in every batch and on every
// shard; the stable radix sort — skipped for a block already in key order,
// where it is the identity — and the engines' seam-preserving
// accumulators do the rest.
//
// Top-down, each level's owned spans are probed and expanded by their
// shards — a cached interior vertex prunes its entire sampled subtree,
// and a fully cached frontier short-circuits with no Compute RPC at all;
// bottom-up, one Compute per owning span runs each layer with misses.
// Level 0 is never expanded: the router only names its vertices, the
// level-1 Compute reads the rows its shard owns out of its own feature
// matrix, and just the halo — rows a block reads across a shard boundary
// — is fetched from the owner and shipped (computeLevel). ver gates every
// cache probe and admission so a concurrent checkpoint reload can neither
// serve stale rows nor be poisoned by them.
//
// sp is the caller's already-open sample-stage span, begun right at the
// batch's demux/sample boundary so call-entry overhead is attributed to
// sampling, not left in an unspanned gap. Forward continues it as the
// batch's stage track.
func (f *Fleet) Forward(batchID, ver uint64, seeds []int32, sp obs.Span) (*tensor.Tensor, map[int32]int32, error) {
	dims := f.model.Load().LayerDims()
	L := len(dims) - 1
	sets := make([]*rlevel, L+1)
	tr := obs.ContinueTrack(sp, obs.StageSample, batchID)
	defer tr.End()
	fw := &forward{Fleet: f, batch: batchID, ver: ver, inline: obs.WithTrack(context.Background(), tr)}

	// The seed level is sorted once; every level below is the frontier union
	// of the misses above it, which drains sorted and deduplicated.
	rl := newRLevel(seeds)
	rowOf := indexOf(rl.verts)
	for l := L; l >= 1; l-- {
		sets[l] = rl
		if err := fw.expandLevel(l, dims[l], rl); err != nil {
			return nil, nil, err
		}
		tr.To(obs.StageSample)
		var next []int32
		if rl.miss > 0 {
			fr := f.frontier()
			next = f.drain(fr, rl.markMisses(fr, 0, len(rl.verts)))
		}
		rl = &rlevel{verts: next}
	}
	sets[0] = rl

	for l := 1; l <= L; l++ {
		if sets[l].miss == 0 {
			continue
		}
		tr.To(obs.StageCollective)
		if err := fw.computeLevel(l, dims[l-1], dims[l], sets[l], sets[l-1]); err != nil {
			return nil, nil, err
		}
	}
	return tensor.FromSlice(sets[L].rows, len(sets[L].verts), dims[L]), rowOf, nil
}

// forward is the router-side state of one Forward call.
type forward struct {
	*Fleet
	batch, ver uint64
	// inline carries the batch's stage track. The router's goroutine is
	// inside exactly one stage span from entry to return, so the batch's
	// trace decomposes with no gap: while the router waits on a fanned-out
	// or remote level the open span is its own; a level with one owning
	// span is called under inline, which hands the track to an in-process
	// shard for the length of the call.
	inline context.Context
}

// ctx is the context a level with n owning spans issues its RPCs under.
func (fw *forward) ctx(n int) context.Context {
	if n == 1 {
		return fw.inline
	}
	return context.Background()
}

// fanOut runs do(0) … do(n-1), one call per owning span, and returns the
// first error. A level with one owning span — always at one shard, common
// at N — runs on the caller's goroutine; only a real fan-out pays for
// goroutines.
func fanOut(n int, do func(i int) error) error {
	if n == 1 {
		return do(0)
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = do(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// badReply reports a reply whose shape does not answer its request. It is
// a property of the reply, not of the transport: the ladder has already
// accepted the call, so nothing is retried and no replica is demoted.
func (f *Fleet) badReply(s int, format string, args ...any) error {
	f.stats[s].failures.Add(1)
	return fmt.Errorf("shard %d: malformed reply: %s", s, fmt.Sprintf(format, args...))
}

// expandLevel fans one level's sorted vertex set out to its owners: hits
// come back as rows, misses as sampled source lists. Level 0 — a halo
// fetch — has neither: every vertex comes back as its feature row. A
// level with a single owner adopts the reply's slices as its own; several
// owners' replies are spliced into freshly allocated ones.
func (fw *forward) expandLevel(level, dim int, rl *rlevel) error {
	spans := fw.spansOf(rl.verts)
	if len(spans) > 1 {
		rl.rows = make([]float32, len(rl.verts)*dim)
		if level > 0 {
			rl.hit = make([]bool, len(rl.verts))
			rl.srcs = make([][]int32, len(rl.verts))
		}
	}
	ctx := fw.ctx(len(spans))
	nv := fw.bounds[len(fw.bounds)-1]
	err := fanOut(len(spans), func(i int) error {
		os := spans[i]
		args := &ExpandArgs{
			Batch: fw.batch, Ver: fw.ver, Level: level, Dim: dim,
			Verts: rl.verts[os.lo:os.hi],
		}
		rep, err := fw.callExpand(ctx, os.shard, args)
		if err != nil {
			return err
		}
		// A reply cannot be checked against its request by the wire
		// decoder, so it is checked here, before anything indexes it.
		n := os.hi - os.lo
		switch {
		case len(rep.Rows) != n*dim:
			return fw.badReply(os.shard, "%d row elements for %d vertices × dim %d", len(rep.Rows), n, dim)
		case level > 0 && (len(rep.Hit) != n || len(rep.Srcs) != n):
			return fw.badReply(os.shard, "%d hit flags and %d source lists for %d vertices",
				len(rep.Hit), len(rep.Srcs), n)
		}
		for _, srcs := range rep.Srcs {
			for _, src := range srcs {
				if src < 0 || src >= nv {
					return fw.badReply(os.shard, "source %d outside [0,%d)", src, nv)
				}
			}
		}
		st := fw.stats[os.shard]
		// Exact encoded frame sizes, whatever the transport — the TCP
		// path puts exactly these bytes on the wire. Booked once per
		// call from the winning reply: hedged or retried losers never
		// reach this line.
		st.bytesOut.Add(uint64(wire.SizeExpandArgs(args)))
		st.bytesIn.Add(uint64(wire.SizeExpandReply(rep)))
		if len(spans) == 1 {
			rl.hit, rl.rows, rl.srcs = rep.Hit, rep.Rows, rep.Srcs
			return nil
		}
		copy(rl.rows[os.lo*dim:os.hi*dim], rep.Rows)
		if level > 0 {
			copy(rl.hit[os.lo:os.hi], rep.Hit)
			copy(rl.srcs[os.lo:os.hi], rep.Srcs)
		}
		return nil
	})
	if err != nil {
		return err
	}
	for _, h := range rl.hit {
		if !h {
			rl.miss++
		}
	}
	return nil
}

// gatherRows returns the rows of in[:a] and in[b:] — in an ascending
// subset of src's vertices, in[a:b] the run the receiver reads in place —
// flat in that order. The whole of src is its rows as they stand.
func gatherRows(src *rlevel, in []int32, a, b, dim int) []float32 {
	n := len(in) - (b - a)
	if n == len(src.verts) {
		return src.rows
	}
	rows := make([]float32, 0, n*dim)
	p := 0
	for _, run := range [2][]int32{in[:a], in[b:]} {
		for _, v := range run {
			for src.verts[p] != v {
				p++
			}
			rows = append(rows, src.rows[p*dim:(p+1)*dim]...)
		}
	}
	return rows
}

// ownedRun returns the index range [a, b) of the ascending ids in that fall
// in [lo, hi). A shard's range is contiguous, so what it owns of an input
// set is one run of it and the halo is what is left around the run — the
// one fact the router's and the shard's side of a level-1 request share.
func ownedRun(in []int32, lo, hi int32) (a, b int) {
	a, _ = slices.BinarySearch(in, lo)
	b, _ = slices.BinarySearch(in, hi)
	return a, b
}

// computeLevel runs layer level-1 for the level's misses: per owning
// shard, ship the lower-level input set (each target plus its sampled
// sources, sorted and deduplicated) with its rows, and take the computed
// target rows back into the level. The shard rebuilds its block in the
// input set's ascending-parent-order local space, which induces the same
// per-destination accumulation order whatever the span layout.
//
// At level 1 the rows below are features, which the shard that owns them
// reads in place: a job's request carries rows for its halo only, fetched
// here from their owners by one level-0 Expand per owner — and by none
// when every job owns all it reads, as a one-shard fleet's always does.
func (fw *forward) computeLevel(level, inDim, outDim int, rl, prev *rlevel) error {
	type job struct {
		ownerSpan
		targets []int32 // owned miss targets, ascending
		// Level 1 only: the feature ids the targets' blocks read, ascending,
		// and the run in[a:b] of them the shard owns. Above level 1 the
		// input set is derived inside the fan-out and all of it is shipped.
		in   []int32
		a, b int
	}
	var jobs []job
	for _, os := range fw.spansOf(rl.verts) {
		targets := rl.verts[os.lo:os.hi]
		if rl.miss < len(rl.verts) {
			targets = nil
			for k := os.lo; k < os.hi; k++ {
				if !rl.hit[k] {
					targets = append(targets, rl.verts[k])
				}
			}
		}
		if len(targets) > 0 {
			jobs = append(jobs, job{ownerSpan: os, targets: targets})
		}
	}
	// The level below is exactly the union of every miss's input set, so a
	// sole job's input set is the level below itself; several jobs each
	// collect their own subset.
	below := prev.verts
	inputSet := func(j job) []int32 {
		if len(jobs) == 1 {
			return below
		}
		fr := fw.frontier()
		return fw.drain(fr, rl.markMisses(fr, j.lo, j.hi))
	}
	if level == 1 {
		// prev becomes the union of the halos with their rows, so the jobs
		// below draw on it exactly as a higher level draws on the level
		// beneath it.
		n := 0
		for i := range jobs {
			j := &jobs[i]
			j.in = inputSet(*j)
			j.a, j.b = ownedRun(j.in, fw.bounds[j.shard], fw.bounds[j.shard+1])
			n += len(j.in) - (j.b - j.a)
		}
		var halo []int32
		if n > 0 {
			fr := fw.frontier()
			for _, j := range jobs {
				for _, v := range j.in[:j.a] {
					fr.mark(v)
				}
				for _, v := range j.in[j.b:] {
					fr.mark(v)
				}
			}
			halo = fw.drain(fr, n)
		}
		prev = &rlevel{verts: halo}
		if len(prev.verts) > 0 {
			if err := fw.expandLevel(0, inDim, prev); err != nil {
				return err
			}
		}
	}
	ctx := fw.ctx(len(jobs))
	return fanOut(len(jobs), func(i int) error {
		j := jobs[i]
		if level > 1 {
			j.in = inputSet(j)
		}
		args := &ComputeArgs{
			Batch: fw.batch, Ver: fw.ver, Level: level,
			InDim: inDim, OutDim: outDim,
			Verts: j.targets, In: j.in, Rows: gatherRows(prev, j.in, j.a, j.b, inDim),
		}
		rep, err := fw.callCompute(ctx, j.shard, args)
		if err != nil {
			return err
		}
		if len(rep.Rows) != len(j.targets)*outDim {
			return fw.badReply(j.shard, "%d row elements for %d targets × dim %d",
				len(rep.Rows), len(j.targets), outDim)
		}
		st := fw.stats[j.shard]
		st.computes.Add(1)
		st.bytesOut.Add(uint64(wire.SizeComputeArgs(args)))
		st.bytesIn.Add(uint64(wire.SizeComputeReply(rep)))
		if len(j.targets) == len(rl.verts) {
			rl.rows = rep.Rows // every row of the level was computed here
			return nil
		}
		n := 0
		for k := j.lo; k < j.hi; k++ {
			if !rl.hit[k] {
				copy(rl.rows[k*outDim:(k+1)*outDim], rep.Rows[n*outDim:(n+1)*outDim])
				n++
			}
		}
		return nil
	})
}
