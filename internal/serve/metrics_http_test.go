package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"wisegraph/internal/fault"
	"wisegraph/internal/nn"
	"wisegraph/internal/obs"
)

var promSampleLine = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (-?[0-9.e+-]+|NaN|\+Inf)$`)

// scrapeMetrics fetches /metrics, validates every line as exposition
// format, and returns name{labels} → value.
func scrapeMetrics(t *testing.T, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics Content-Type = %q", ct)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		m := promSampleLine.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("unparseable metrics line: %q", line)
		}
		v, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		out[m[1]+m[2]] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestMetricsEndpoint(t *testing.T) {
	obs.Enable(1 << 10)
	defer obs.Disable()
	ds := testDataset(t, 60, 240, 12, 5, 1, 1)
	e := testEngine(t, ds, testModel(t, ds, nn.SAGE), Options{Workers: 1})
	srv := httptest.NewServer(NewHandler(e))
	defer srv.Close()

	if _, err := http.Post(srv.URL+"/predict", "application/json",
		strings.NewReader(`{"nodes":[0,1,2]}`)); err != nil {
		t.Fatal(err)
	}

	samples := scrapeMetrics(t, srv.URL)
	required := []string{
		"wisegraph_serve_uptime_seconds",
		"wisegraph_serve_admitted_total",
		"wisegraph_serve_completed_total",
		"wisegraph_serve_canceled_total",
		"wisegraph_serve_shed_total",
		"wisegraph_serve_rejected_draining_total",
		"wisegraph_serve_batches_total",
		"wisegraph_serve_in_flight",
		"wisegraph_serve_queue_depth",
		"wisegraph_serve_latency_seconds_count",
		"wisegraph_serve_batch_size_count",
		"wisegraph_device_kernels_total",
	}
	for _, name := range required {
		v, ok := samples[name]
		if !ok {
			t.Errorf("required metric %s missing", name)
			continue
		}
		if v < 0 {
			t.Errorf("%s = %v, want non-negative", name, v)
		}
	}
	if samples["wisegraph_serve_completed_total"] < 1 {
		t.Error("completed_total did not count the predict")
	}
	if samples["wisegraph_device_kernels_total"] < 1 {
		t.Error("device kernel counters empty after a forward pass")
	}
	// Every stage histogram family is present.
	for s := obs.Stage(0); s < obs.NumStages; s++ {
		key := `wisegraph_stage_duration_seconds_count{stage="` + s.String() + `"}`
		if _, ok := samples[key]; !ok {
			t.Errorf("stage histogram for %v missing", s)
		}
	}
	// At least one per-kernel launch counter with a kernel label.
	foundKernel := false
	for k := range samples {
		if strings.HasPrefix(k, `wisegraph_device_kernel_launches_total{kernel="`) {
			foundKernel = true
			break
		}
	}
	if !foundKernel {
		t.Error("no per-kernel launches counter exported")
	}
}

// TestMetricsInventory pins the router's /metrics families, name and
// type, to testdata/metrics_router.txt: a family is added, renamed or
// removed by editing that file. The engine runs with everything that
// gates a family switched on — cache, replicas, a fault schedule — and
// has served one request, so the per-kernel families exist.
func TestMetricsInventory(t *testing.T) {
	ds := testDataset(t, 60, 240, 12, 5, 1, 1)
	m := testModel(t, ds, nn.SAGE)
	idle := &fault.Schedule{Seed: 1, Sites: map[string]fault.SiteConfig{fault.SiteShardRPC: {}}}
	fault.WithSchedule(idle, func() {
		e := testEngine(t, ds, m, Options{Workers: 1, CacheBudget: 1 << 20, Shards: 2, Replicas: 2})
		if _, err := e.Predict(context.Background(), []int32{0, 1, 2}, false); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := e.WriteMetrics(&buf); err != nil {
			t.Fatal(err)
		}
		var fams []string
		for _, line := range strings.Split(buf.String(), "\n") {
			if fam, ok := strings.CutPrefix(line, "# TYPE "); ok {
				fams = append(fams, fam)
			}
		}
		slices.Sort(fams)
		got := strings.Join(fams, "\n") + "\n"
		want, err := os.ReadFile("testdata/metrics_router.txt")
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("router /metrics families differ from testdata/metrics_router.txt; got:\n%s", got)
		}
	})
}

func TestDebugTraceEndpoint(t *testing.T) {
	obs.Enable(1 << 10)
	defer obs.Disable()
	ds := testDataset(t, 60, 240, 12, 5, 1, 1)
	e := testEngine(t, ds, testModel(t, ds, nn.SAGE), Options{Workers: 1})
	srv := httptest.NewServer(NewHandler(e))
	defer srv.Close()

	if _, err := http.Post(srv.URL+"/predict", "application/json",
		strings.NewReader(`{"nodes":[0]}`)); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(srv.URL + "/debug/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/trace status %d, want 200", resp.StatusCode)
	}
	var trace struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&trace); err != nil {
		t.Fatalf("trace is not valid Chrome trace JSON: %v", err)
	}
	if len(trace.TraceEvents) == 0 {
		t.Fatal("trace has no events after a predict")
	}
	names := map[string]bool{}
	for _, ev := range trace.TraceEvents {
		if ev.Ph != "X" {
			t.Fatalf("event phase %q, want complete events (X)", ev.Ph)
		}
		names[ev.Name] = true
	}
	for _, want := range []string{"sample", "partition", "exec", "collective", "demux", "batch"} {
		if !names[want] {
			t.Errorf("trace missing %q events (got %v)", want, names)
		}
	}

	// With tracing disabled the endpoint 404s instead of serving nothing.
	obs.Disable()
	resp2, err := http.Get(srv.URL + "/debug/trace")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("disabled /debug/trace status %d, want 404", resp2.StatusCode)
	}
}

func TestPprofOptIn(t *testing.T) {
	ds := testDataset(t, 40, 160, 8, 4, 1, 1)
	e := testEngine(t, ds, testModel(t, ds, nn.SAGE), Options{Workers: 1})

	// Default handler: pprof absent.
	srv := httptest.NewServer(NewHandler(e))
	resp, err := http.Get(srv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	srv.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("pprof exposed without opt-in")
	}

	// WithPprof: index and a profile endpoint respond.
	srv2 := httptest.NewServer(NewHandler(e, WithPprof()))
	defer srv2.Close()
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/goroutine?debug=1"} {
		resp, err := http.Get(srv2.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s status %d, want 200", path, resp.StatusCode)
		}
		if len(body) == 0 {
			t.Fatalf("%s returned empty body", path)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5e9)
	defer cancel()
	_ = e.Shutdown(ctx)
}
