package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/pprof"
	"time"

	"wisegraph/internal/obs"
)

// PredictRequest is the /predict request body.
type PredictRequest struct {
	// Nodes are parent-graph vertex ids to classify.
	Nodes []int32 `json:"nodes"`
	// Logits asks for the raw logits rows alongside the argmax classes.
	Logits bool `json:"logits,omitempty"`
	// TimeoutMs overrides the server's default per-request deadline.
	TimeoutMs int `json:"timeoutMs,omitempty"`
}

// PredictResponse is the /predict response body.
type PredictResponse struct {
	Classes   []int32     `json:"classes"`
	Logits    [][]float32 `json:"logits,omitempty"`
	LatencyMs float64     `json:"latencyMs"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// HealthResponse is the /healthz body; it doubles as service discovery for
// load clients (graph size bounds the valid node ids).
type HealthResponse struct {
	Status   string `json:"status"`
	Model    string `json:"model"`
	Vertices int    `json:"vertices"`
	Classes  int    `json:"classes"`
}

// HandlerOption customizes the serve mux beyond the always-on routes.
type HandlerOption func(*http.ServeMux)

// WithPprof mounts the stdlib net/http/pprof profiler under /debug/pprof/.
// It is opt-in (a flag on wisegraph-serve) because profile endpoints can
// stall the process and should not be exposed by default.
func WithPprof() HandlerOption {
	return func(mux *http.ServeMux) {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
}

// NewHandler exposes an engine over stdlib net/http:
//
//	POST /predict     — classify nodes (JSON in/out)
//	GET  /healthz     — liveness + drain state
//	GET  /statsz      — serving metrics snapshot (JSON)
//	GET  /metrics     — Prometheus text exposition
//	GET  /debug/trace — recent spans as Chrome trace-event JSON
//
// Options add routes (e.g. WithPprof).
func NewHandler(e *Engine, options ...HandlerOption) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/predict", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			writeErr(w, http.StatusMethodNotAllowed, "POST only")
			return
		}
		var req PredictRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeErr(w, http.StatusBadRequest, "bad JSON: "+err.Error())
			return
		}
		ctx := r.Context()
		if req.TimeoutMs > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutMs)*time.Millisecond)
			defer cancel()
		}
		start := time.Now()
		pred, err := e.Predict(ctx, req.Nodes, req.Logits)
		if err != nil {
			status := statusFor(err)
			if status == http.StatusTooManyRequests {
				w.Header().Set("Retry-After", "1")
			}
			writeErr(w, status, err.Error())
			return
		}
		writeJSON(w, http.StatusOK, PredictResponse{
			Classes:   pred.Classes,
			Logits:    pred.Logits,
			LatencyMs: float64(time.Since(start)) / 1e6,
		})
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		status := "ok"
		code := http.StatusOK
		if e.Draining() {
			status = "draining"
			code = http.StatusServiceUnavailable
		}
		writeJSON(w, code, HealthResponse{
			Status:   status,
			Model:    e.cfg.Kind.String(),
			Vertices: e.ds.Graph.NumVertices,
			Classes:  e.ds.Classes(),
		})
	})
	mux.HandleFunc("/statsz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, e.Stats())
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := e.WriteMetrics(w); err != nil {
			writeErr(w, http.StatusInternalServerError, err.Error())
		}
	})
	mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, r *http.Request) {
		if !obs.Enabled() {
			writeErr(w, http.StatusNotFound, "tracing disabled (ring size 0)")
			return
		}
		w.Header().Set("Content-Type", "application/json")
		obs.WriteChromeTrace(w)
	})
	for _, opt := range options {
		opt(mux)
	}
	return mux
}

// statusFor maps engine errors to HTTP statuses: the backpressure policy
// is visible to clients (429 = shed, retry against a less loaded replica;
// 503 = draining, retry elsewhere; 504 = deadline).
func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return 499 // client closed request (nginx convention)
	default:
		return http.StatusBadRequest
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, errorResponse{Error: msg})
}
