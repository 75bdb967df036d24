// Command wisegraph-shard runs one shard of the serving tier as its own
// process: it reconstructs the dataset replica and checkpoint exactly
// like wisegraph-serve, listens for the router's TCP connections, and
// serves Expand/Compute RPCs over the internal/shard/wire protocol.
//
// Daemons are interchangeable: a node learns its shard id, owned vertex
// range, sampler seed and tuned plan from the first Hello the
// router sends, and validates everything it can recompute locally (the
// placement boundaries, the model shape, a hash of the parameters) so a
// mismatched fleet fails at connect time instead of serving subtly
// different logits.
//
// Usage:
//
//	wisegraph-shard -dataset AR -checkpoint model.ckpt -addr 127.0.0.1:9101 &
//	wisegraph-shard -dataset AR -checkpoint model.ckpt -addr 127.0.0.1:9102 &
//	wisegraph-serve -dataset AR -checkpoint model.ckpt \
//	    -shard-addrs 127.0.0.1:9101,127.0.0.1:9102
//
// The dataset and checkpoint flags must match the router's — the
// handshake rejects anything else. On SIGTERM the daemon stops accepting,
// drains its worker pool, and reports the in-flight count (0 on a clean
// drain).
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"wisegraph"
	"wisegraph/internal/shard"
)

func main() {
	var (
		dsName      = flag.String("dataset", "AR", "dataset name (must match the router)")
		scale       = flag.Int("scale", 0, "dataset scale divisor override (must match the router)")
		seed        = flag.Uint64("seed", 1, "dataset seed (must match the router)")
		noise       = flag.Float64("noise", 0.8, "feature noise (must match the router)")
		checkpoint  = flag.String("checkpoint", "", "model checkpoint (must be the same file the router serves)")
		model       = flag.String("model", "SAGE", "model kind for untrained serving (no -checkpoint; a checkpoint carries its own)")
		hidden      = flag.Int("hidden", 64, "hidden dim for untrained serving (no -checkpoint)")
		layers      = flag.Int("layers", 3, "layer count for untrained serving (no -checkpoint)")
		addr        = flag.String("addr", "127.0.0.1:0", "listen address (use :0 for an ephemeral port)")
		metricsAddr = flag.String("metrics-addr", "", "HTTP listen address for /metrics and /healthz (empty disables)")
		workers     = flag.Int("workers", 2, "RPC worker pool size (this node's compute budget)")
		cacheBudget = flag.String("cache-budget", "0", "this node's hot-vertex cache budget, e.g. 64MiB (0 disables)")
	)
	flag.Parse()

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
	fmt.Printf("model %v: %d-%d-%d x%d layers, %d params (sum %016x)\n",
		m.Cfg.Kind, m.Cfg.InDim, m.Cfg.Hidden, m.Cfg.OutDim, m.Cfg.Layers,
		m.NumParams(), shard.ParamSum(m))

	budget, err := wisegraph.ParseBytes(*cacheBudget)
	if err != nil {
		fatal(fmt.Errorf("-cache-budget: %w", err))
	}
	sv := shard.NewServer(ds.Graph.BuildCSRByDst(), ds.Features, ds.Graph.NumTypes, m, shard.NodeConfig{
		Workers:     *workers,
		CacheBudget: budget,
	})

	// A SIGTERM that follows the listen line must drain, so the handler
	// is installed before anything can read that line.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("wisegraph-shard listening on %s\n", ln.Addr())

	if *metricsAddr != "" {
		mln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			fatal(fmt.Errorf("-metrics-addr: %w", err))
		}
		fmt.Printf("wisegraph-shard metrics on %s\n", mln.Addr())
		go http.Serve(mln, sv.MetricsHandler())
		defer mln.Close()
	}

	errCh := make(chan error, 1)
	go func() { errCh <- sv.Serve(ln) }()

	select {
	case s := <-sig:
		fmt.Printf("signal %v: draining...\n", s)
	case err := <-errCh:
		if err != nil {
			fatal(err)
		}
		return
	}

	ln.Close()
	sv.Close()
	line := fmt.Sprintf("drained: in-flight=%d", sv.InFlight())
	if s := sv.Shard(); s != nil {
		cs := s.Cache().Snapshot()
		lo, hi := s.Bounds()
		line += fmt.Sprintf(" shard=%d range=[%d,%d) cache-hits=%d cache-misses=%d cache-bytes=%d",
			s.ID(), lo, hi, cs.Hits, cs.Misses, cs.Bytes)
		if h := sv.Ident(); h != nil {
			line += fmt.Sprintf(" replica=%d/%d", h.Replica, h.Replicas)
		}
	}
	fmt.Println(line)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
