package main

import "time"

// The fixed shape every workload shares. Only the load (node ids, arrival
// schedule, probe set) and the model's initial weights come from -seed; the
// dataset, the sampler key and the one-shot plan tune are pinned so two
// seeds run the same program on the same graph and their numbers compare.
const (
	datasetName  = "AR"
	datasetScale = 10 // V = 16 900, E = 230 000, 8 edge types, dim 128, 40 classes
	smokeScale   = 100
	datasetSeed  = 1
	homophily    = 0.85
	featureNoise = 0.8

	modelHidden = 64
	modelLayers = 3
	fanout      = 10
	samplerSeed = 1    // serve.Options.Seed: keys DetSample and the plan tune
	learnRate   = 0.01 // train-fullgraph Adam step

	// procs is GOMAXPROCS for the measured program: one. The box's vCPUs
	// share physical cores, so two busy threads slow each other by an amount
	// that depends on where the host put them that minute (saturated
	// throughput: 24 % run-to-run spread on two Ps, 14 % on one, same hour),
	// and the engine's workers, batcher, clients and the generator then
	// take turns on the Ps in an order no two runs repeat. On one P the
	// benchmark measures what a request costs, not how the scheduler
	// interleaved it; what it cannot see is lock contention and parallel
	// speed-up, which a later benchmark issue can add on a box with cores
	// of its own.
	procs = 1

	// 32 closed-loop clients against BatchCap 16: fewer than 2×BatchCap pins
	// every batch to the 2 ms fill deadline and benchmarks a timer.
	clients = 32
	// pacedPool is how many parked goroutines carry open-loop requests: more
	// than the backlog a one-second freeze leaves at the highest paced rate
	// would need, so the dispatcher's hand-off never waits for one.
	pacedPool = 256

	probeSet  = 64 // vertices in the bitwise output check
	setupReps = 5  // set-ups per run; setup_s is their median

	fleetShards      = 2
	fleetCacheBudget = 2 << 20 // per shard: 4 MiB of a ~20 MB row set
	cacheBudgetAll   = 64 << 20

	// Every timed phase is cut into equal windows and each metric is the
	// median over the windows of the window's own figure, so a burst of
	// interference (seconds long, a few times a minute on the defining box)
	// owns a window or two and not the number.
	satWindows   = 6
	pacedWindows = 14

	// fillDelayMs is serve.Options.BatchDelay's default, which every
	// workload runs with: see latencyAtRefSpeed.
	fillDelayMs = 2.0

	// pacedLimit is the latency limit of a paced response. A backlog that
	// grows crosses it within seconds; most of the hypervisor freezes seen
	// on the box the benchmark was defined on (200–550 ms) do not. Responses
	// over it are counted in load.fail_frac, not in the result line's
	// failed: the freezes that cause them are the box's, and two sets of
	// runs of one program must agree on failed.
	pacedLimit = time.Second

	// The box freezes for up to a second at a time, the generator with it,
	// and on waking the open loop sends everything that fell due at once.
	// The engine's defaults (queue 64, deadline 2 s, RPC timeout 250 ms with
	// a hedge at a quarter of it) turn such a burst into sheds, timeouts and
	// retries that say nothing about the program, so the benchmark runs it
	// the way an operator on this box would: a queue that holds the burst
	// and deadlines the freeze cannot reach. None of the three is touched by
	// a request that is not late already, and the lateness stays in the
	// latency, which runs from the due time.
	queueDepth      = 1 << 14
	requestDeadline = 30 * time.Second
	rpcTimeout      = 30 * time.Second // also the Fleet.Forward probes'
)

type kind int

const (
	serving kind = iota
	training
)

// workload is one row of the workload table.
type workload struct {
	name, why string
	kind      kind

	cacheBudget int64   // single-node hot-vertex cache bytes (0 = off)
	tcpShards   int     // > 0: route through in-process shard.Servers over loopback TCP
	zipf        float64 // node popularity skew (0 = uniform)
	warm        int     // count-based warm-up requests
	rate        float64 // paced open-loop arrivals per second
	// tail_ms is this quantile of the latencies: 0.9 on the serving
	// workloads, whose 60 to 2 000 samples per window leave 6 or more
	// beyond it in each of 14 windows; p99 was the first choice and read
	// 25–45 % apart between runs of one program, so it is in the per-layer
	// table instead.
	tailQ float64
}

// Paced rates are ≈ ¼ of what one P serves when every batch holds one
// request, which is what an open loop at this rate produces: measured CPU
// per request there is ≈ 4.4 / 0.09 / 1.5 ms (serve-uniform / cached /
// fleet), so 60 / 2 000 / 150 req/s keep the P ≈ 25 % busy. (The first
// version sized the rates from the saturated, batch-of-16 throughput; at
// batch 1 that was 85 % busy, and a tail at 85 % utilisation multiplies
// every wobble of the box by 1/(1-ρ).)
var workloads = []workload{
	{
		name: "serve-uniform", kind: serving,
		why:  "cache off, uniform ids: every request pays the full 3-hop forward, so DetSample, plan-reuse partition and kernels do the work and hotcache, shard, wire are bypassed",
		warm: 300, rate: 60, tailQ: 0.9,
	},
	{
		name: "serve-zipf-cached", kind: serving, cacheBudget: cacheBudgetAll, zipf: 1.2,
		why:  "cache holds the whole row set, zipf 1.2: kernels idle and admission queue, batch fill, seed dedup, hotcache.Get and demux are the whole cost; mirror image of serve-uniform",
		warm: 300_000, rate: 2000, tailQ: 0.9,
	},
	{
		name: "fleet-tcp-zipf", kind: serving, tcpShards: fleetShards, zipf: 1.2,
		why:  "two shard servers over loopback TCP with 2 MiB caches each: the only path through Fleet.Forward, the RPC ladder, wire and sockets, with the cache under eviction pressure",
		warm: 8000, rate: 150, tailQ: 0.9,
	},
	{
		name: "train-fullgraph", kind: training,
		why: "the paper's loop on the full 230k-edge graph: joint.Search at set-up, then Epoch plus a gTask evaluation forward per request; no serve, hotcache or shard",
		// ≈ 15 requests of ≈ 1.3 s per run: the upper quartile is the highest
		// percentile with a few samples beyond it.
		tailQ: 0.75,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// sizes are the counts that shrink in -smoke so `go test` can exercise every
// code path in seconds; the defaults are what the numbers are defined on.
type sizes struct {
	scale       int
	setupReps   int
	warmDiv     int // warm-up counts are divided by this
	satStream   int // pre-generated ids per closed-loop client (wraps)
	probeVerts  int // DetSample / hotcache probe keys
	probeBlocks int // sampled blocks for the partition and kernel probes
	blockSeeds  int // seeds per sampled block and per Fleet.Forward batch
	matmulReps  int // repetitions of the box-drift yardstick
	fwdBatches  int // Fleet.Forward batches per transport
	reps        int // repetitions of the full-graph probes
	// kernelBudget is how long each (engine, model) layer probe repeats.
	kernelBudget time.Duration
}

func sizesFor(smoke bool) sizes {
	if smoke {
		return sizes{scale: smokeScale, setupReps: 1, warmDiv: 100, satStream: 1 << 10,
			probeVerts: 500, probeBlocks: 4, blockSeeds: 2, matmulReps: 1, fwdBatches: 2, reps: 1, kernelBudget: 5 * time.Millisecond}
	}
	return sizes{scale: datasetScale, setupReps: setupReps, warmDiv: 1, satStream: 1 << 15,
		probeVerts: 10_000, probeBlocks: 40, blockSeeds: 16, matmulReps: 30, fwdBatches: 24, reps: 3, kernelBudget: 200 * time.Millisecond}
}

// metricDef names one metric; BENCHMARK.json lists the same names and
// TestBenchmarkJSONMatches keeps the two in step.
type metricDef struct {
	name, unit string
	// End-to-end metrics only: the direction that is better, and the share
	// of the parent's median by which the metric may worsen before a change
	// counts as a regression.
	higherBetter bool
	bound        float64
}

var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", bound: 0.25},
	{name: "qps", unit: "1/s", higherBetter: true, bound: 0.25},
	{name: "p50_ms", unit: "ms", bound: 0.25},
	{name: "tail_ms", unit: "ms", bound: 0.25},
}

var perLayer = []metricDef{
	{name: "serve.batch_size_mean", unit: "count"},
	{name: "serve.fill_wait_us", unit: "us"},
	{name: "serve.shed_frac", unit: "fraction"},
	{name: "serve.allocs_per_req", unit: "count"},
	{name: "serve.alloc_kb_per_req", unit: "KiB"},
	{name: "serve.demux_us_per_req", unit: "us"},
	{name: "serve.sample_us_per_req", unit: "us"},
	{name: "serve.cache_us_per_req", unit: "us"},
	{name: "serve.partition_us_per_req", unit: "us"},
	{name: "serve.exec_us_per_req", unit: "us"},
	{name: "serve.collective_us_per_req", unit: "us"},
	{name: "serve.stage_cover_frac", unit: "fraction"},
	{name: "graph.detsample_ns_per_vertex", unit: "ns"},
	{name: "graph.detsample_allocs_per_vertex", unit: "count"},
	{name: "graph.csr_build_ms", unit: "ms"},
	{name: "hotcache.get_hit_ns", unit: "ns"},
	{name: "hotcache.get_miss_ns", unit: "ns"},
	{name: "hotcache.put_ns", unit: "ns"},
	{name: "hotcache.put_evict_ns", unit: "ns"},
	{name: "hotcache.hit_rate", unit: "fraction"},
	{name: "hotcache.evict_per_kreq", unit: "count"},
	{name: "hotcache.resident_mb", unit: "MiB"},
	{name: "core.reuse_partition_ns_per_edge", unit: "ns"},
	{name: "core.full_partition_ns_per_edge", unit: "ns"},
	{name: "joint.search_ms_sampled", unit: "ms"},
	{name: "joint.plans_tried", unit: "count"},
	{name: "joint.partition_cache_hits", unit: "count"},
	{name: "kernels.blocked.sage_ns_per_edge", unit: "ns"},
	{name: "kernels.fused.sage_ns_per_edge", unit: "ns"},
	{name: "kernels.device.sage_ns_per_edge", unit: "ns"},
	{name: "kernels.fused.gcn_ns_per_edge", unit: "ns"},
	{name: "kernels.fused.gat_ns_per_edge", unit: "ns"},
	{name: "kernels.fused.rgcn_ns_per_edge", unit: "ns"},
	{name: "kernels.blocked.rgcn_ns_per_edge", unit: "ns"},
	{name: "kernels.layer_allocs", unit: "count"},
	{name: "kernels.blocked.bytes_per_edge", unit: "B"},
	{name: "kernels.fused.bytes_per_edge", unit: "B"},
	{name: "nn.forward_ms", unit: "ms"},
	{name: "nn.backward_step_ms", unit: "ms"},
	{name: "nn.trainstep_allocs", unit: "count"},
	{name: "device.sim_us_per_forward", unit: "us"},
	{name: "device.flops_per_req", unit: "count"},
	{name: "device.bytes_per_req", unit: "B"},
	{name: "device.wall_over_sim", unit: "ratio"},
	{name: "shard.forward_inproc_us_per_batch", unit: "us"},
	{name: "shard.forward_tcp_us_per_batch", unit: "us"},
	{name: "shard.tcp_cost_ratio", unit: "ratio"},
	{name: "shard.forward_allocs_per_batch", unit: "count"},
	{name: "shard.rpcs_per_batch", unit: "count"},
	{name: "shard.bytes_out_per_req", unit: "B"},
	{name: "shard.bytes_in_per_req", unit: "B"},
	{name: "shard.rpc_p50_ms", unit: "ms"},
	{name: "shard.rpc_p99_ms", unit: "ms"},
	{name: "shard.retries", unit: "count"},
	{name: "shard.hedges", unit: "count"},
	{name: "shard.timeouts", unit: "count"},
	{name: "shard.failures", unit: "count"},
	{name: "wire.encode_ns_per_kb", unit: "ns"},
	{name: "wire.decode_ns_per_kb", unit: "ns"},
	{name: "wire.decode_allocs_per_frame", unit: "count"},
	{name: "wire.readframe_alloc_kb", unit: "KiB"},
	{name: "tensor.matmul_gflops", unit: "GFLOP/s"},
	{name: "dataset.load_ms", unit: "ms"},
	{name: "obs.trace_overhead_frac", unit: "fraction"},
	{name: "proc.peak_rss_mb", unit: "MiB"},
	{name: "proc.gc_pause_ms", unit: "ms"},
	{name: "proc.gen_late_p99_us", unit: "us"},
	{name: "proc.gen_late_p50_us", unit: "us"},
	// The paper's own quantities and the failure share: end-to-end in the
	// issue's sketch, per-layer here because the contract prints every
	// end-to-end metric on every workload and forbids one that reads 0.
	{name: "train.tune_ms", unit: "ms"},
	{name: "train.epoch_ms", unit: "ms"},
	{name: "train.gtask_forward_ms", unit: "ms"},
	{name: "load.fail_frac", unit: "fraction"},
	{name: "load.paced_samples", unit: "count"},
	// What the reference-speed figures were made from (see speed.go), and
	// the tail beyond the gated quantile.
	{name: "load.setup_s_measured", unit: "s"},
	{name: "load.qps_measured", unit: "1/s"},
	{name: "load.p50_ms_measured", unit: "ms"},
	{name: "load.tail_ms_measured", unit: "ms"},
	{name: "load.cpu_ms_per_req", unit: "ms"},
	{name: "load.cpu_ms_per_req_measured", unit: "ms"},
	{name: "load.ref_slowdown_sat", unit: "ratio"},
	{name: "load.ref_slowdown_paced", unit: "ratio"},
	{name: "load.p99_ms_whole", unit: "ms"},
}
