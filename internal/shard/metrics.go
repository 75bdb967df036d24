package shard

import (
	"fmt"
	"net/http"

	"wisegraph/internal/obs"
)

// The daemon-side observability surface: WriteMetrics renders the
// server's counters as Prometheus 0.0.4 text, and MetricsHandler mounts
// it (plus a liveness probe) on an http.ServeMux so wisegraph-shard can
// expose a -metrics-addr listener and fleet dashboards stop scraping
// stderr.

// WriteMetrics renders the daemon's metrics in Prometheus exposition
// format: identity gauges (shard/replica/owned range, once admitted),
// per-kind RPC counters with service latency histograms, exact frame
// bytes both ways, the in-flight gauge, the shard cache's accounting,
// per-stage timings and — when a chaos schedule is active — the per-site
// fault injection counters. Every daemon-side family is wisegraph_node_*:
// the router's wisegraph_shard_*{shard=} families count the same traffic
// from the other end (its bytes_in are this node's bytes_out, its rpcs
// are calls, these are handler runs — retried attempts included).
func (sv *Server) WriteMetrics(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	p := obs.NewPromWriter(w)

	if h := sv.Ident(); h != nil {
		ident := fmt.Sprintf("shard=%q,replica=%q", fmt.Sprint(h.ShardID), fmt.Sprint(h.Replica))
		p.Gauge("wisegraph_node_shard_id", ident, float64(h.ShardID))
		p.Gauge("wisegraph_node_replica", ident, float64(h.Replica))
		p.Gauge("wisegraph_node_range_lo", ident, float64(h.Lo))
		p.Gauge("wisegraph_node_range_hi", ident, float64(h.Hi))
	}

	p.Counter("wisegraph_node_rpcs_total", `type="expand"`, float64(sv.stats.expands.Load()))
	p.Counter("wisegraph_node_rpcs_total", `type="compute"`, float64(sv.stats.computes.Load()))
	p.Counter("wisegraph_node_rpc_errors_total", "", float64(sv.stats.errors.Load()))
	p.Counter("wisegraph_node_bytes_in_total", "", float64(sv.stats.bytesIn.Load()))
	p.Counter("wisegraph_node_bytes_out_total", "", float64(sv.stats.bytesOut.Load()))
	p.Gauge("wisegraph_node_in_flight", "", float64(sv.InFlight()))
	p.Histogram("wisegraph_node_rpc_duration_seconds", `type="expand"`, &sv.stats.latExp)
	p.Histogram("wisegraph_node_rpc_duration_seconds", `type="compute"`, &sv.stats.latCmp)

	if s := sv.Shard(); s != nil {
		cs := s.Cache().Snapshot()
		p.Counter("wisegraph_node_cache_hits_total", "", float64(cs.Hits))
		p.Counter("wisegraph_node_cache_misses_total", "", float64(cs.Misses))
		p.Counter("wisegraph_node_cache_admitted_total", "", float64(cs.Admitted))
		p.Counter("wisegraph_node_cache_evicted_total", "", float64(cs.Evicted))
		p.Gauge("wisegraph_node_cache_bytes_resident", "", float64(cs.Bytes))
		p.Gauge("wisegraph_node_cache_entries", "", float64(cs.Entries))
		p.Gauge("wisegraph_node_cache_capacity_bytes", "", float64(cs.Capacity))
	}

	p.StageHistograms("wisegraph_stage_duration_seconds")

	p.FaultCounters()
}

// MetricsHandler returns the daemon's HTTP surface: /metrics (Prometheus
// text) and /healthz (200 "ok" — liveness only; readiness is the TCP
// handshake itself, which validates far more than a probe could).
func (sv *Server) MetricsHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		sv.WriteMetrics(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	return mux
}
