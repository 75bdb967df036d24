// Command wisegraph-serve answers online node-classification queries over
// HTTP: it reconstructs the dataset replica, loads a trained checkpoint
// (format v2 checkpoints carry their own model config), tunes the joint
// execution plan once, and serves /predict with dynamic micro-batching,
// admission control and serving metrics.
//
// Usage:
//
//	wisegraph-train -dataset AR -epochs 30 -save-checkpoint model.ckpt
//	wisegraph-serve -dataset AR -checkpoint model.ckpt -addr :8080
//	curl -s localhost:8080/predict -d '{"nodes":[0,1,2]}'
//	curl -s localhost:8080/statsz
//
// The dataset flags must match the ones used at training time so vertex
// ids and features line up with the checkpoint.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"wisegraph"
	"wisegraph/internal/fault"
	"wisegraph/internal/joint"
	"wisegraph/internal/obs"
	"wisegraph/internal/serve"
)

func main() {
	var (
		dsName      = flag.String("dataset", "AR", "dataset name (must match training)")
		scale       = flag.Int("scale", 0, "dataset scale divisor override (must match training)")
		seed        = flag.Uint64("seed", 1, "dataset seed (must match training)")
		noise       = flag.Float64("noise", 0.8, "feature noise (must match training)")
		checkpoint  = flag.String("checkpoint", "", "model checkpoint to serve (embeds the model config; -model/-hidden/-layers are ignored)")
		model       = flag.String("model", "SAGE", "model kind for untrained serving (no -checkpoint; a checkpoint carries its own)")
		hidden      = flag.Int("hidden", 64, "hidden dim for untrained serving (no -checkpoint)")
		layers      = flag.Int("layers", 3, "layer count for untrained serving (no -checkpoint)")
		planPath    = flag.String("plan", "", "pre-tuned execution plan JSON (default: one-shot tune at startup)")
		addr        = flag.String("addr", "127.0.0.1:8080", "listen address (use :0 for an ephemeral port)")
		workers     = flag.Int("workers", 2, "forward-pass workers")
		batchCap    = flag.Int("batch-cap", 16, "max requests per micro-batch")
		queueDepth  = flag.Int("queue-depth", 0, "admission queue depth (default 4x batch cap)")
		deadline    = flag.Duration("deadline", 2*time.Second, "default per-request deadline")
		fanout      = flag.String("fanout", "", "sampling fan-outs, comma-separated (default 10 per layer)")
		drainWait   = flag.Duration("drain-timeout", 15*time.Second, "graceful drain budget on shutdown")
		traceRing   = flag.Int("trace-ring", obs.DefaultRingSize, "span ring-buffer capacity for /debug/trace (0 disables tracing)")
		pprofFlag   = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
		faultSpec   = flag.String("fault-spec", "", "deterministic fault-injection schedule, e.g. seed=42;serve.batch:error=0.05,latency=0.1,delay=2ms")
		cacheBudget = flag.String("cache-budget", "0", "hot-vertex embedding cache budget, e.g. 64MiB (0 disables; pure performance knob — cached logits are bitwise-identical)")
		cacheWarm   = flag.Int("cache-warm", 0, "pre-admit the top-K highest-in-degree vertices per layer at startup (0 disables)")
		shards      = flag.Int("shards", 1, "serve through N in-process shards behind a fan-out router (>1 enables the sharded tier; cache budget becomes per-shard)")
		shardTmo    = flag.Duration("shard-timeout", 250*time.Millisecond, "per-shard-RPC deadline (an attempt with no reply by then is a timeout and is retried; replica hedges fire at a quarter of it)")
		shardAddrs  = flag.String("shard-addrs", "", "comma-separated wisegraph-shard daemon addresses: serve through remote TCP shards, one per address (overrides -shards; daemons must be started with the same dataset/checkpoint flags)")
		replicas    = flag.Int("replicas", 1, "replicas per shard span: reads fail over and hedge across them (with -shard-addrs, the list groups into R-way replica sets, all replicas of span 0 first)")
	)
	flag.Parse()
	if *faultSpec != "" {
		sched, err := fault.Parse(*faultSpec)
		if err != nil {
			fatal(err)
		}
		fault.Set(sched)
		fmt.Printf("fault injection: %s\n", sched)
	}

	if *traceRing > 0 {
		obs.Enable(*traceRing)
	}

	ds, err := wisegraph.LoadDataset(*dsName, wisegraph.DatasetOptions{
		Scale: *scale, Seed: *seed, Homophily: 0.85, FeatureNoise: *noise,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("dataset %s: %v (scale 1/%d), %d classes, dim %d\n",
		*dsName, ds.Graph, ds.Scale, ds.Classes(), ds.Dim())

	m, err := wisegraph.LoadModel(os.Stdout, ds, *checkpoint, *model, *hidden, *layers, *seed)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("model %v: %d-%d-%d x%d layers, %d params\n",
		m.Cfg.Kind, m.Cfg.InDim, m.Cfg.Hidden, m.Cfg.OutDim, m.Cfg.Layers, m.NumParams())

	budget, err := wisegraph.ParseBytes(*cacheBudget)
	if err != nil {
		fatal(fmt.Errorf("-cache-budget: %w", err))
	}
	opts := serve.Options{
		Workers:      *workers,
		BatchCap:     *batchCap,
		QueueDepth:   *queueDepth,
		Deadline:     *deadline,
		Seed:         *seed,
		CacheBudget:  budget,
		CacheWarm:    *cacheWarm,
		Shards:       *shards,
		Replicas:     *replicas,
		ShardTimeout: *shardTmo,
	}
	if *shardAddrs != "" {
		for _, a := range strings.Split(*shardAddrs, ",") {
			if a = strings.TrimSpace(a); a != "" {
				opts.ShardAddrs = append(opts.ShardAddrs, a)
			}
		}
	}
	if *fanout != "" {
		opts.Fanouts, err = wisegraph.ParseFanouts(*fanout)
		if err != nil {
			fatal(err)
		}
	}
	if *planPath != "" {
		data, err := os.ReadFile(*planPath)
		if err != nil {
			fatal(err)
		}
		opts.Plan, err = joint.UnmarshalPlan(data)
		if err != nil {
			fatal(err)
		}
		if opts.Plan.Kind != m.Cfg.Kind {
			fatal(fmt.Errorf("plan %s is for %v, model is %v", *planPath, opts.Plan.Kind, m.Cfg.Kind))
		}
		fmt.Printf("loaded plan %s: %v + %v\n", *planPath, opts.Plan.GraphPlan, opts.Plan.OpPlan)
	}

	engine, err := serve.NewEngine(ds, m, opts)
	if err != nil {
		fatal(err)
	}
	if budget > 0 {
		scope := ""
		if *shards > 1 {
			scope = " per shard"
		}
		fmt.Printf("hot-vertex cache: budget %s%s, %d layers cached per vertex\n",
			*cacheBudget, scope, m.Cfg.Layers)
	}
	fl := engine.Fleet()
	fmt.Printf("sharded tier: %d shards x %d replicas, bounds %v, rpc timeout %v\n",
		fl.Size(), fl.Replicas(), fl.Bounds(), *shardTmo)
	if *cacheWarm > 0 {
		st := engine.Stats()
		fmt.Printf("cache warm-up: top %d vertices pre-admitted (%d entries, %d bytes resident)\n",
			*cacheWarm, st.CacheEntries, st.CacheBytesResident)
	}
	if *planPath == "" {
		fmt.Printf("tuned plan: %v + %v (frozen, reused across requests)\n",
			engine.Plan().GraphPlan, engine.Plan().OpPlan)
	}

	// A SIGTERM that follows the listen line must drain, so the handler
	// is installed before anything can read that line.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	var handlerOpts []serve.HandlerOption
	if *pprofFlag {
		handlerOpts = append(handlerOpts, serve.WithPprof())
	}
	srv := &http.Server{Handler: serve.NewHandler(engine, handlerOpts...)}
	fmt.Printf("wisegraph-serve listening on http://%s\n", ln.Addr())

	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()

	select {
	case s := <-sig:
		fmt.Printf("signal %v: draining...\n", s)
	case err := <-errCh:
		fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if err := engine.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "engine drain: %v\n", err)
	}
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "http drain: %v\n", err)
	}
	st := engine.Stats()
	fmt.Printf("drained: in-flight=%d served=%d shed=%d batches=%d avg-batch=%.2f p50=%.2fms p99=%.2fms flops/req=%.0f%s\n",
		engine.InFlight(), st.Completed, st.Shed, st.Batches, st.AvgBatchSize,
		st.LatencyP50Ms, st.LatencyP99Ms, st.FLOPsPerRequest, cacheSummary(st)+shardSummary(st))
}

// cacheSummary renders the cache tail of the drain line ("" when the
// cache is disabled, so existing log scrapes keep matching).
func cacheSummary(st serve.Snapshot) string {
	if !st.CacheEnabled {
		return ""
	}
	return fmt.Sprintf(" cache-hit-rate=%.1f%% cache-bytes=%d cache-entries=%d",
		100*st.CacheHitRate, st.CacheBytesResident, st.CacheEntries)
}

// shardSummary renders the fleet tail of the drain line (a single node is
// shards=1).
func shardSummary(st serve.Snapshot) string {
	return fmt.Sprintf(" shards=%d shard-in-flight=%d hedges=%d retries=%d timeouts=%d shard-failures=%d",
		st.Shards, st.ShardInFlight, st.ShardHedges, st.ShardRetries, st.ShardTimeouts, st.ShardFailures)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
