// Command wgserve-bench drives a running wisegraph-serve instance with
// closed-loop load and reports the throughput–latency outcome: each
// virtual client issues the next /predict as soon as the previous one
// answers, so offered load scales with -clients until the server's
// admission queue starts shedding. After the run it scrapes /statsz and
// folds the server-side view — execution engine, hot-vertex cache hit
// rate and residency, FLOPs per request — into the summary, and -json
// stamps the whole result to a file for regression tracking.
//
// Usage:
//
//	wisegraph-serve -dataset AR -checkpoint model.ckpt -addr :8080 &
//	wgserve-bench -url http://127.0.0.1:8080 -clients 32 -duration 10s
//	wgserve-bench -url http://127.0.0.1:8080 -zipf 1.2 -json out.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"time"

	"wisegraph/internal/serve"
	"wisegraph/internal/shard"
)

// benchResult is the -json document: the client-side load report plus
// the server-side snapshot taken right after the run. Engine and cache
// fields ride along so a tracked regression can be attributed to the
// execution engine or the cache configuration that produced it.
type benchResult struct {
	URL         string        `json:"url"`
	Clients     int           `json:"clients"`
	NodesPerReq int           `json:"nodesPerReq"`
	Duration    time.Duration `json:"durationNs"`
	Zipf        float64       `json:"zipf"`
	Seed        uint64        `json:"seed"`

	Completed  uint64  `json:"completed"`
	Shed       uint64  `json:"shed"`
	Errors     uint64  `json:"errors"`
	Throughput float64 `json:"qps"`
	P50Ms      float64 `json:"p50Ms"`
	P95Ms      float64 `json:"p95Ms"`
	P99Ms      float64 `json:"p99Ms"`

	// Fleet view (a single-node server reports shards: 1): shard
	// count, each shard's router-side RPC QPS and latency quantiles, and
	// the resilience counters (hedged duplicates, retried RPC faults,
	// per-shard timeouts, exhausted-ladder failures) plus the engine's
	// degraded half-batch retries the failures fall back to.
	Shards          int           `json:"shards,omitempty"`
	PerShard        []shard.Stats `json:"perShard,omitempty"`
	ShardHedges     uint64        `json:"shardHedges,omitempty"`
	ShardRetries    uint64        `json:"shardRetries,omitempty"`
	ShardTimeouts   uint64        `json:"shardTimeouts,omitempty"`
	ShardFailures   uint64        `json:"shardFailures,omitempty"`
	DegradedRetries uint64        `json:"degradedRetries,omitempty"`

	Server *serve.Snapshot `json:"server,omitempty"`
}

func main() {
	var (
		url      = flag.String("url", "http://127.0.0.1:8080", "server base URL")
		clients  = flag.Int("clients", 16, "closed-loop clients")
		nodes    = flag.Int("nodes", 1, "node ids per request")
		maxNode  = flag.Int("max-node", 0, "exclusive node-id bound (default: vertices from /healthz)")
		duration = flag.Duration("duration", 5*time.Second, "load duration")
		seed     = flag.Uint64("seed", 1, "client RNG seed")
		zipf     = flag.Float64("zipf", 0, "node popularity skew: P(node r) ∝ 1/(r+1)^zipf (0 = uniform)")
		jsonOut  = flag.String("json", "", "write the full result (load report + server snapshot) as JSON to this file")
	)
	flag.Parse()

	if *maxNode <= 0 {
		h, err := health(*url)
		if err != nil {
			fatal(fmt.Errorf("fetching /healthz (pass -max-node to skip): %w", err))
		}
		if h.Status != "ok" {
			fatal(fmt.Errorf("server status %q", h.Status))
		}
		*maxNode = h.Vertices
		fmt.Printf("server: model=%s vertices=%d classes=%d\n", h.Model, h.Vertices, h.Classes)
	}

	rep := serve.RunClosedLoopHTTP(*url, *maxNode, serve.LoadOptions{
		Clients: *clients, NodesPerReq: *nodes, Duration: *duration,
		Seed: *seed, Zipf: *zipf,
	})
	fmt.Println(rep)

	// Server-side view: engine, cache behavior and FLOPs accounting for
	// the load just applied. Best-effort — an unreachable /statsz (server
	// already gone) degrades to the client-side report alone.
	snap, err := statsz(*url)
	if err != nil {
		fmt.Fprintf(os.Stderr, "warning: /statsz scrape failed: %v\n", err)
	} else {
		line := fmt.Sprintf("server: engine=%s flops/req=%.0f", snap.Engine, snap.FLOPsPerRequest)
		if snap.CacheEnabled {
			line += fmt.Sprintf(" cache-hit-rate=%.1f%% cache-bytes=%d/%d cache-entries=%d cache-evicted=%d",
				100*snap.CacheHitRate, snap.CacheBytesResident, snap.CacheCapacityBytes,
				snap.CacheEntries, snap.CacheEvicted)
		} else {
			line += " cache=off"
		}
		fmt.Println(line)
		if snap.Shards > 0 {
			fmt.Printf("server: shards=%d hedges=%d retries=%d timeouts=%d shard-failures=%d degraded=%d\n",
				snap.Shards, snap.ShardHedges, snap.ShardRetries, snap.ShardTimeouts,
				snap.ShardFailures, snap.DegradedRetries)
			for _, ss := range snap.PerShard {
				fmt.Printf("  shard %d [%d,%d): rpcs=%d qps=%.1f p50=%.2fms p99=%.2fms cache-hits=%d\n",
					ss.ID, ss.Lo, ss.Hi, ss.RPCs, ss.QPS, ss.P50Ms, ss.P99Ms, ss.CacheHits)
			}
		}
	}

	if *jsonOut != "" {
		res := benchResult{
			URL: *url, Clients: *clients, NodesPerReq: *nodes,
			Duration: *duration, Zipf: *zipf, Seed: *seed,
			Completed: rep.Completed, Shed: rep.Shed, Errors: rep.Errors,
			Throughput: rep.Throughput,
			P50Ms:      float64(rep.P50) / float64(time.Millisecond),
			P95Ms:      float64(rep.P95) / float64(time.Millisecond),
			P99Ms:      float64(rep.P99) / float64(time.Millisecond),
			Server:     snap,
		}
		if snap != nil && snap.Shards > 0 {
			res.Shards = snap.Shards
			res.PerShard = snap.PerShard
			res.ShardHedges = snap.ShardHedges
			res.ShardRetries = snap.ShardRetries
			res.ShardTimeouts = snap.ShardTimeouts
			res.ShardFailures = snap.ShardFailures
			res.DegradedRetries = snap.DegradedRetries
		}
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*jsonOut, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *jsonOut)
	}

	if rep.Completed == 0 {
		fatal(fmt.Errorf("no requests completed"))
	}
}

func health(base string) (*serve.HealthResponse, error) {
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var h serve.HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return nil, err
	}
	return &h, nil
}

func statsz(base string) (*serve.Snapshot, error) {
	resp, err := http.Get(base + "/statsz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var s serve.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		return nil, err
	}
	return &s, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
