package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"wisegraph/internal/serve"
	"wisegraph/internal/tensor"
)

// loadOptions configure a closed-loop load run; the tags are the -json
// document's field names.
type loadOptions struct {
	// Clients is the number of closed-loop virtual users; each issues its
	// next request as soon as the previous one answers (no think time), so
	// offered load rises until the server's admission queue pushes back.
	Clients int `json:"clients"`
	// NodesPerReq is how many node ids each request carries.
	NodesPerReq int `json:"nodesPerReq"`
	// Duration is how long the run offers load.
	Duration time.Duration `json:"durationNs"`
	// Zipf skews node popularity: node id r is drawn with probability
	// ∝ 1/(r+1)^Zipf. Zero means uniform. Serving traffic is typically
	// hotspot-skewed (YCSB-style), which is the regime where micro-batch
	// coalescing pays: duplicate and overlapping hot-node queries are
	// sampled, gathered and computed once per batch.
	Zipf float64 `json:"zipf"`
	// Seed derives the per-client RNG streams.
	Seed uint64 `json:"seed"`
}

// loadReport summarizes one closed-loop load run.
type loadReport struct {
	Completed  uint64  `json:"completed"`
	Shed       uint64  `json:"shed"`   // 429s: load the server refused instead of stalling on
	Errors     uint64  `json:"errors"` // non-shed failures
	Throughput float64 `json:"qps"`    // completed requests/second
	P50Ms      float64 `json:"p50Ms"`
	P95Ms      float64 `json:"p95Ms"`
	P99Ms      float64 `json:"p99Ms"`
}

func (r loadReport) String() string {
	return fmt.Sprintf("done=%d shed=%d err=%d qps=%.1f p50=%.3fms p95=%.3fms p99=%.3fms",
		r.Completed, r.Shed, r.Errors, r.Throughput, r.P50Ms, r.P95Ms, r.P99Ms)
}

// shedBackoff is how long a closed-loop client sleeps after being shed, so
// a full queue degrades into bounded retry pressure instead of a busy spin.
const shedBackoff = 500 * time.Microsecond

// errShed marks a 429: the server refused the request at admission.
var errShed = errors.New("shed")

// nodePicker draws node ids under the configured popularity distribution.
// It is immutable after construction and shared by every client.
type nodePicker struct {
	n   int
	cum []float64 // nil ⇒ uniform
}

func newNodePicker(n int, zipf float64) *nodePicker {
	p := &nodePicker{n: n}
	if zipf <= 0 {
		return p
	}
	p.cum = make([]float64, n)
	total := 0.0
	for r := 0; r < n; r++ {
		total += 1 / math.Pow(float64(r+1), zipf)
		p.cum[r] = total
	}
	return p
}

func (p *nodePicker) pick(rng *tensor.RNG) int32 {
	if p.cum == nil {
		return int32(rng.Intn(p.n))
	}
	u := rng.Float64() * p.cum[p.n-1]
	return int32(sort.SearchFloat64s(p.cum, u))
}

// runClosedLoop drives the server at baseURL with closed-loop load: every
// client POSTs /predict, waits for the answer and asks again until the
// duration is up. maxNode bounds the node ids (the client does not know
// the graph size; pass what the server reports or a known bound).
func runClosedLoop(baseURL string, maxNode int, o loadOptions) loadReport {
	// The default transport keeps only 2 idle connections per host; with
	// dozens of closed-loop clients that means constant dial/teardown and
	// the generator bottlenecks on connection churn instead of the server.
	hc := &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        2 * o.Clients,
			MaxIdleConnsPerHost: 2 * o.Clients,
			IdleConnTimeout:     30 * time.Second,
		},
	}
	url := baseURL + "/predict"
	picker := newNodePicker(maxNode, o.Zipf)
	issue := func(rng *tensor.RNG) error {
		nodes := make([]int32, o.NodesPerReq)
		for i := range nodes {
			nodes[i] = picker.pick(rng)
		}
		body, _ := json.Marshal(serve.PredictRequest{Nodes: nodes}) // ids only: cannot fail
		resp, err := hc.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests {
			return errShed
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("http %d", resp.StatusCode)
		}
		var pr serve.PredictResponse
		return json.NewDecoder(resp.Body).Decode(&pr)
	}

	var (
		hist       serve.Histogram // one observation per completed request
		shed, errs atomic.Uint64
		wg         sync.WaitGroup
		deadline   = time.Now().Add(o.Duration)
	)
	for c := 0; c < o.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := tensor.NewRNG(o.Seed ^ (uint64(c+1) * 0x2545f4914f6cdd1d))
			for time.Now().Before(deadline) {
				start := time.Now()
				err := issue(rng)
				switch {
				case err == nil:
					hist.Observe(time.Since(start))
				case errors.Is(err, errShed):
					shed.Add(1)
					time.Sleep(shedBackoff)
				default:
					errs.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	done := hist.Count()
	ms := func(q float64) float64 { return float64(hist.Quantile(q)) / float64(time.Millisecond) }
	return loadReport{
		Completed:  done,
		Shed:       shed.Load(),
		Errors:     errs.Load(),
		Throughput: float64(done) / o.Duration.Seconds(),
		P50Ms:      ms(0.50),
		P95Ms:      ms(0.95),
		P99Ms:      ms(0.99),
	}
}
