package serve

import (
	"io"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"wisegraph/internal/device"
	"wisegraph/internal/obs"
	"wisegraph/internal/shard"
)

// Histogram is the lock-free power-of-two latency histogram, shared with
// the observability layer (internal/obs) so serving latencies and stage
// timings use one implementation and one quantile estimator.
type Histogram = obs.Histogram

// Stats aggregates every serving counter. All fields are atomics updated
// lock-free on the request path; Snapshot assembles a JSON-friendly view.
//
// Invariant: every admitted request is eventually counted in exactly one
// of completed or canceled, so admitted = completed + canceled + in-flight
// at all times (shed and rejected requests are never admitted).
type Stats struct {
	start time.Time

	admitted  atomic.Uint64 // entered the admission queue
	completed atomic.Uint64 // computed a response (including per-request errors)
	shed      atomic.Uint64 // 429: queue full
	rejected  atomic.Uint64 // 503: draining
	canceled  atomic.Uint64 // request context expired before compute
	batches   atomic.Uint64

	// resilience counters (fault-injection aware)
	batchFaults atomic.Uint64 // batches failed by a fault or forward error
	degraded    atomic.Uint64 // graceful-degradation retries at half batch size

	// batchSizes[n] counts micro-batches that coalesced n requests
	// (index 0 unused; len = BatchCap+1).
	batchSizes []atomic.Uint64

	latency Histogram
	// queueWait is each live request's time from admission to the start of
	// its micro-batch: the part of its latency spent waiting for a batch.
	queueWait Histogram
}

func newStats(batchCap int) *Stats {
	return &Stats{start: time.Now(), batchSizes: make([]atomic.Uint64, batchCap+1)}
}

func (s *Stats) recordBatch(n int) {
	s.batches.Add(1)
	if n >= len(s.batchSizes) {
		n = len(s.batchSizes) - 1
	}
	s.batchSizes[n].Add(1)
}

// recordDone counts one computed response. Only completed requests feed
// the latency histogram; canceled requests go through recordCanceled so
// their queue-timeout latencies cannot pollute p99.
func (s *Stats) recordDone(lat time.Duration) {
	s.completed.Add(1)
	s.latency.Observe(lat)
}

// recordCanceled counts one request whose context expired before its
// micro-batch ran.
func (s *Stats) recordCanceled() {
	s.canceled.Add(1)
}

// Snapshot is the /statsz payload.
type Snapshot struct {
	Admitted         uint64         `json:"admitted"`
	Completed        uint64         `json:"completed"`
	Shed             uint64         `json:"shed"`
	RejectedDraining uint64         `json:"rejectedDraining"`
	Canceled         uint64         `json:"canceled"`
	InFlight         int64          `json:"inFlight"`
	QueueDepth       int            `json:"queueDepth"`
	Batches          uint64         `json:"batches"`
	BatchFaults      uint64         `json:"batchFaults"`
	DegradedRetries  uint64         `json:"degradedRetries"`
	AvgBatchSize     float64        `json:"avgBatchSize"`
	BatchSizeDist    map[int]uint64 `json:"batchSizeDist"`
	LatencyMeanMs    float64        `json:"latencyMeanMs"`
	LatencyP50Ms     float64        `json:"latencyP50Ms"`
	LatencyP95Ms     float64        `json:"latencyP95Ms"`
	LatencyP99Ms     float64        `json:"latencyP99Ms"`
	// QueueWaitSeconds is the cumulative time served requests spent
	// between admission and the start of their micro-batch.
	QueueWaitSeconds float64 `json:"queueWaitSeconds"`

	// Hot-vertex cache accounting (all zero when the cache is disabled).
	CacheEnabled       bool    `json:"cacheEnabled"`
	CacheHits          uint64  `json:"cacheHits"`
	CacheMisses        uint64  `json:"cacheMisses"`
	CacheHitRate       float64 `json:"cacheHitRate"` // hits / (hits+misses)
	CacheAdmitted      uint64  `json:"cacheAdmitted"`
	CacheEvicted       uint64  `json:"cacheEvicted"`
	CacheRejected      uint64  `json:"cacheRejected"`
	CacheFlushes       uint64  `json:"cacheFlushes"`
	CacheBytesResident int64   `json:"cacheBytesResident"`
	CacheEntries       int     `json:"cacheEntries"`
	CacheCapacityBytes int64   `json:"cacheCapacityBytes"`

	// Modeled compute from the simulated devices, summed across workers.
	// FLOPsPerRequest = DeviceFLOPs / Completed — the redundant-compute
	// metric the hot-vertex cache is meant to push down.
	DeviceFLOPs     float64 `json:"deviceFLOPs"`
	FLOPsPerRequest float64 `json:"flopsPerRequest"`

	// The serving fleet (a single node is 1 shard × 1 replica). The
	// cache fields above aggregate the per-shard caches fleet-wide;
	// PerShard carries the per-shard breakdown including each shard's
	// router-side RPC count and latency quantiles.
	Shards        int           `json:"shards,omitempty"`
	ShardReplicas int           `json:"shardReplicas,omitempty"`
	ShardRetries  uint64        `json:"shardRetries,omitempty"`
	ShardHedges   uint64        `json:"shardHedges,omitempty"`
	ShardTimeouts uint64        `json:"shardTimeouts,omitempty"`
	ShardFailures uint64        `json:"shardFailures,omitempty"`
	ShardInFlight int64         `json:"shardInFlight,omitempty"`
	PerShard      []shard.Stats `json:"perShard,omitempty"`
}

func (s *Stats) snapshot(inFlight int64, queueDepth int) Snapshot {
	dist := make(map[int]uint64)
	var sizeSum uint64
	for n := range s.batchSizes {
		if c := s.batchSizes[n].Load(); c > 0 {
			dist[n] = c
			sizeSum += uint64(n) * c
		}
	}
	batches := s.batches.Load()
	avg := 0.0
	if batches > 0 {
		avg = float64(sizeSum) / float64(batches)
	}
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	return Snapshot{
		Admitted:         s.admitted.Load(),
		Completed:        s.completed.Load(),
		Shed:             s.shed.Load(),
		RejectedDraining: s.rejected.Load(),
		Canceled:         s.canceled.Load(),
		InFlight:         inFlight,
		QueueDepth:       queueDepth,
		Batches:          batches,
		BatchFaults:      s.batchFaults.Load(),
		DegradedRetries:  s.degraded.Load(),
		AvgBatchSize:     avg,
		BatchSizeDist:    dist,
		LatencyMeanMs:    ms(s.latency.Mean()),
		LatencyP50Ms:     ms(s.latency.Quantile(0.50)),
		LatencyP95Ms:     ms(s.latency.Quantile(0.95)),
		LatencyP99Ms:     ms(s.latency.Quantile(0.99)),
		QueueWaitSeconds: s.queueWait.Sum().Seconds(),
	}
}

// WriteMetrics writes the full Prometheus text exposition for this
// engine: the serving counters, the request-latency and batch-size
// histograms, the per-stage timing histograms from the observability
// layer, and the per-kernel counters aggregated across the fleet's
// simulated devices.
func (e *Engine) WriteMetrics(w io.Writer) error {
	s := e.stats
	p := obs.NewPromWriter(w)
	p.Gauge("wisegraph_serve_uptime_seconds", "", time.Since(s.start).Seconds())
	p.Counter("wisegraph_serve_admitted_total", "", float64(s.admitted.Load()))
	p.Counter("wisegraph_serve_completed_total", "", float64(s.completed.Load()))
	p.Counter("wisegraph_serve_canceled_total", "", float64(s.canceled.Load()))
	p.Counter("wisegraph_serve_shed_total", "", float64(s.shed.Load()))
	p.Counter("wisegraph_serve_rejected_draining_total", "", float64(s.rejected.Load()))
	p.Counter("wisegraph_serve_batches_total", "", float64(s.batches.Load()))
	p.Counter("wisegraph_serve_batch_faults_total", "", float64(s.batchFaults.Load()))
	p.Counter("wisegraph_serve_degraded_retries_total", "", float64(s.degraded.Load()))
	p.Gauge("wisegraph_serve_in_flight", "", float64(e.inflight.Load()))
	p.Gauge("wisegraph_serve_queue_depth", "", float64(len(e.queue)))
	p.Histogram("wisegraph_serve_latency_seconds", "", &s.latency)
	p.Histogram("wisegraph_serve_queue_wait_seconds", "", &s.queueWait)

	// Hot-vertex cache accounting (only exported when the cache is on),
	// aggregated across the in-process shards' caches.
	if cs, ok := e.cacheStats(); ok {
		p.Counter("wisegraph_serve_cache_hits_total", "", float64(cs.Hits))
		p.Counter("wisegraph_serve_cache_misses_total", "", float64(cs.Misses))
		p.Counter("wisegraph_serve_cache_admitted_total", "", float64(cs.Admitted))
		p.Counter("wisegraph_serve_cache_evicted_total", "", float64(cs.Evicted))
		p.Counter("wisegraph_serve_cache_rejected_total", "", float64(cs.Rejected))
		p.Counter("wisegraph_serve_cache_flushes_total", "", float64(cs.Flushes))
		p.Gauge("wisegraph_serve_cache_bytes_resident", "", float64(cs.Bytes))
		p.Gauge("wisegraph_serve_cache_entries", "", float64(cs.Entries))
		p.Gauge("wisegraph_serve_cache_capacity_bytes", "", float64(cs.Capacity))
	}

	// Fleet accounting, router side: per-span RPC traffic, resilience
	// counters and cache residency, labeled by shard id. A daemon's own
	// view of the same traffic is wisegraph_node_* on its /metrics.
	p.Gauge("wisegraph_serve_shards", "", float64(e.fleet.Size()))
	for _, ss := range e.fleet.Stats() {
		l := `shard="` + strconv.Itoa(ss.ID) + `"`
		p.Counter("wisegraph_shard_rpcs_total", l, float64(ss.RPCs))
		p.Counter("wisegraph_shard_computes_total", l, float64(ss.Computes))
		p.Counter("wisegraph_shard_retries_total", l, float64(ss.Retries))
		p.Counter("wisegraph_shard_hedges_total", l, float64(ss.Hedges))
		p.Counter("wisegraph_shard_timeouts_total", l, float64(ss.Timeouts))
		p.Counter("wisegraph_shard_failures_total", l, float64(ss.Failures))
		p.Counter("wisegraph_shard_bytes_in_total", l, float64(ss.BytesIn))
		p.Counter("wisegraph_shard_bytes_out_total", l, float64(ss.BytesOut))
		p.Gauge("wisegraph_shard_in_flight", l, float64(ss.InFlight))
		p.Counter("wisegraph_shard_cache_hits_total", l, float64(ss.CacheHits))
		p.Counter("wisegraph_shard_cache_misses_total", l, float64(ss.CacheMisses))
		p.Gauge("wisegraph_shard_cache_bytes_resident", l, float64(ss.CacheBytes))
		for _, rs := range ss.Replicas {
			rl := l + `,replica="` + strconv.Itoa(rs.Replica) + `"`
			p.Gauge("wisegraph_shard_replica_health", rl, rs.Health)
			p.Counter("wisegraph_shard_replica_wins_total", rl, float64(rs.Wins))
			p.Counter("wisegraph_shard_replica_fails_total", rl, float64(rs.Fails))
		}
	}

	// Batch-size distribution as an explicit-bounds histogram.
	bounds := make([]float64, 0, len(s.batchSizes)-1)
	counts := make([]uint64, 0, len(s.batchSizes)-1)
	var sizeSum float64
	for n := 1; n < len(s.batchSizes); n++ {
		c := s.batchSizes[n].Load()
		bounds = append(bounds, float64(n))
		counts = append(counts, c)
		sizeSum += float64(n) * float64(c)
	}
	p.HistogramFromBuckets("wisegraph_serve_batch_size", "", bounds, counts, sizeSum)

	// Per-stage timings (sample/partition/exec/collective/demux/batch/step).
	p.StageHistograms("wisegraph_stage_duration_seconds")

	// Fault-injection accounting (only present when a schedule is active).
	p.FaultCounters()

	// Per-kernel counters from the timing model, across all workers.
	agg, kernels := e.DeviceStats()
	names := make([]string, 0, len(kernels))
	for name := range kernels {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ks := kernels[name]
		l := `kernel="` + name + `"`
		p.Counter("wisegraph_device_kernel_launches_total", l, float64(ks.Launches))
		p.Counter("wisegraph_device_kernel_sim_seconds_total", l, ks.SimSeconds)
		p.Counter("wisegraph_device_kernel_flops_total", l, ks.FLOPs)
		p.Counter("wisegraph_device_kernel_bytes_total", l, ks.Bytes)
	}
	cats := make([]string, 0, len(agg.ByCategory))
	for cat := range agg.ByCategory {
		cats = append(cats, cat)
	}
	sort.Strings(cats)
	for _, cat := range cats {
		p.Counter("wisegraph_device_sim_seconds_total", `category="`+cat+`"`, agg.ByCategory[cat])
	}
	p.Counter("wisegraph_device_kernels_total", "", float64(agg.Kernels))
	return p.Err()
}

// DeviceStats aggregates the simulated-device accounting across every
// in-process shard worker's device, where the compute runs (a remote
// fleet's devices live in the daemons).
func (e *Engine) DeviceStats() (device.Stats, map[string]device.KernelStats) {
	total := device.Stats{ByCategory: map[string]float64{}}
	kernels := map[string]device.KernelStats{}
	for _, d := range e.fleet.Devices() {
		st := d.Stats()
		total.SimSeconds += st.SimSeconds
		total.Kernels += st.Kernels
		total.FLOPs += st.FLOPs
		total.Bytes += st.Bytes
		for cat, v := range st.ByCategory {
			total.ByCategory[cat] += v
		}
		for name, ks := range d.KernelStats() {
			m := kernels[name]
			m.Launches += ks.Launches
			m.SimSeconds += ks.SimSeconds
			m.FLOPs += ks.FLOPs
			m.Bytes += ks.Bytes
			kernels[name] = m
		}
	}
	return total, kernels
}
