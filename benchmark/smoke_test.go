package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// A serving and the training workload, traced, on the tiny -smoke shape:
// the traced run also runs the untraced saturation phase and every layer
// probe (the probes are the same on every workload).
func TestSmokeTraced(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"fleet-tcp-zipf", "train-fullgraph"} {
		w, _ := workloadByName(name)
		res, err := runWorkload(w, runConfig{seed: 1, seconds: 0.4, trace: true, smoke: true, outDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		// Only the output checks are asserted: on a slow box (or under
		// -race) the tiny phases shed requests, which is load, not a bug.
		line := res.line(true)
		if !line.Correct || line.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", w.name, line.Correct, line.Attempted, line.Failed)
		}
		if len(line.Metrics) != len(perLayer) {
			t.Errorf("%s: %d per-layer metrics, want %d", w.name, len(line.Metrics), len(perLayer))
		}
		for _, name := range []string{"tensor.matmul_gflops", "kernels.blocked.sage_ns_per_edge", "shard.tcp_cost_ratio", "wire.encode_ns_per_kb"} {
			if line.Metrics[name].Value <= 0 {
				t.Errorf("%s: %s = %v, want > 0", w.name, name, line.Metrics[name].Value)
			}
		}
		raw, err := os.ReadFile(filepath.Join(dir, w.name+".trace.json"))
		if err != nil {
			t.Fatal(err)
		}
		var trace struct {
			TraceEvents []struct{ Name string } `json:"traceEvents"`
			OtherData   struct {
				Dropped int `json:"harness_spans_dropped"`
			} `json:"otherData"`
		}
		if err := json.Unmarshal(raw, &trace); err != nil || len(trace.TraceEvents) == 0 {
			t.Fatalf("%s: trace file: %d events, err %v", w.name, len(trace.TraceEvents), err)
		}
		// Every traced phase, the probes and the requests must reach the
		// file: none crowded out by the spans recorded before them.
		have := map[string]bool{}
		for _, e := range trace.TraceEvents {
			have[e.Name] = true
		}
		want := []string{"setup", "layers", "joint.Search", "wire.Decode", "train.request"}
		if w.kind == serving {
			want = []string{"setup", "warm", "sat", "sat.traced", "paced", "serve.Predict", "layers", "shard.Fleet.Forward.tcp"}
		}
		for _, name := range want {
			if !have[name] {
				t.Errorf("%s: trace file has no %q span", w.name, name)
			}
		}
		if trace.OtherData.Dropped != 0 {
			t.Errorf("%s: %d spans dropped", w.name, trace.OtherData.Dropped)
		}
	}
}

// The untraced run prints exactly the end-to-end metrics.
func TestSmokeUntraced(t *testing.T) {
	for _, name := range []string{"serve-uniform", "serve-zipf-cached"} {
		w, _ := workloadByName(name)
		res, err := runWorkload(w, runConfig{seed: 2, seconds: 0.4, smoke: true})
		if err != nil {
			t.Fatal(err)
		}
		line := res.line(false)
		if !line.Correct {
			t.Errorf("%s: an output check failed (%d of %d)", name, line.Failed, line.Attempted)
		}
		if len(line.Metrics) != len(endToEnd) {
			t.Errorf("%s: %d metrics, want %d", name, len(line.Metrics), len(endToEnd))
		}
		for _, d := range endToEnd {
			if v, ok := line.Metrics[d.name]; !ok || v.Value < 0 || v.Unit != d.unit {
				t.Errorf("%s: %s = %+v", name, d.name, v)
			}
		}
	}
}

// BENCHMARK.json and the harness name the same workloads and metrics.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) || len(spec.EndToEnd) != len(endToEnd) || len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d workloads, %d end-to-end and %d per-layer metrics; the harness has %d, %d, %d",
			len(spec.Workloads), len(spec.EndToEnd), len(spec.PerLayer), len(workloads), len(endToEnd), len(perLayer))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %q vs %q", i, spec.Workloads[i].Name, w.name)
		}
	}
	for i, d := range endToEnd {
		better := map[bool]string{true: "higher", false: "lower"}[d.higherBetter]
		if s := spec.EndToEnd[i]; s.Name != d.name || s.Unit != d.unit || s.Better != better || s.Bound != d.bound {
			t.Errorf("end-to-end %d: %+v vs %+v", i, s, d)
		}
	}
	for i, d := range perLayer {
		if s := spec.PerLayer[i]; s.Name != d.name || s.Unit != d.unit {
			t.Errorf("per-layer %d: %+v vs %+v", i, s, d)
		}
	}
}

// However fast the untraced saturation ran, the traced one's request spans
// fit their budget, and at least one client is always traced.
func TestTracedClientsFitBudget(t *testing.T) {
	for _, perClient := range []uint64{0, 10, 1000, 30_000, 200_000, 10_000_000} {
		n := tracedClients(perClient)
		if n < 1 || n > clients {
			t.Fatalf("%d requests per client: %d traced clients", perClient, n)
		}
		if n > 1 && uint64(n)*2*perClient > requestSpanBudget {
			t.Fatalf("%d requests per client: %d traced clients overflow the budget", perClient, n)
		}
	}
	if tracedClients(100) != clients {
		t.Fatal("a slow workload traces every client")
	}
}
