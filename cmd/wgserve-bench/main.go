// Command wgserve-bench drives a running wisegraph-serve instance with
// closed-loop load and reports the throughput–latency outcome: each
// virtual client issues the next /predict as soon as the previous one
// answers, so offered load scales with -clients until the server's
// admission queue starts shedding. After the run it scrapes /statsz and
// folds the server-side view — hot-vertex cache hit rate and residency,
// FLOPs per request — into the summary, and -json stamps the whole result
// to a file for regression tracking.
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
)

// benchResult is the -json document: what was asked for, the client-side
// load report and the server's /statsz snapshot taken right after the run
// (cache accounting, FLOPs per request and the fleet view), so a
// tracked regression can be attributed to the configuration behind it.
type benchResult struct {
	URL string `json:"url"`
	loadOptions
	loadReport
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
		h, err := getJSON[serve.HealthResponse](*url + "/healthz")
		if err != nil {
			fatal(fmt.Errorf("fetching /healthz (pass -max-node to skip): %w", err))
		}
		if h.Status != "ok" {
			fatal(fmt.Errorf("server status %q", h.Status))
		}
		*maxNode = h.Vertices
		fmt.Printf("server: model=%s vertices=%d classes=%d\n", h.Model, h.Vertices, h.Classes)
	}

	opts := loadOptions{
		Clients: *clients, NodesPerReq: *nodes, Duration: *duration,
		Zipf: *zipf, Seed: *seed,
	}
	rep := runClosedLoop(*url, *maxNode, opts)
	fmt.Printf("clients=%d dur=%v %v\n", *clients, duration.Round(time.Millisecond), rep)

	// Server-side view: cache behavior and FLOPs accounting for the load
	// just applied. Best-effort — an unreachable /statsz (server
	// already gone) degrades to the client-side report alone.
	snap, err := getJSON[serve.Snapshot](*url + "/statsz")
	if err != nil {
		fmt.Fprintf(os.Stderr, "warning: /statsz scrape failed: %v\n", err)
	} else {
		line := fmt.Sprintf("server: flops/req=%.0f", snap.FLOPsPerRequest)
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
				fmt.Printf("  shard %d [%d,%d): rpcs=%d p50=%.2fms p99=%.2fms cache-hits=%d\n",
					ss.ID, ss.Lo, ss.Hi, ss.RPCs, ss.P50Ms, ss.P99Ms, ss.CacheHits)
			}
		}
	}

	if *jsonOut != "" {
		data, err := json.MarshalIndent(benchResult{*url, opts, rep, snap}, "", "  ")
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

// getJSON fetches url and decodes its JSON body into a T.
func getJSON[T any](url string) (*T, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return nil, err
	}
	return &v, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
