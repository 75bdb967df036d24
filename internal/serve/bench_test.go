package serve

import (
	"context"
	"io"
	"testing"

	"wisegraph/internal/dataset"
	"wisegraph/internal/nn"
	"wisegraph/internal/obs"
)

// BenchmarkPredict measures the sequential per-request cost of the full
// serving path — admission, sampling, gather, plan-reuse partition,
// forward, demux — on a realistic dataset replica. Run with -cpuprofile
// to see where a request's time goes (the per-subgraph matmul dominates;
// see the serving section of EXPERIMENTS.md).
func BenchmarkPredict(b *testing.B) {
	ds, err := dataset.Load("AR", dataset.Options{Scale: 1600, Seed: 1, Homophily: 0.85, FeatureNoise: 0.8})
	if err != nil {
		b.Fatal(err)
	}
	m, err := nn.NewModel(nn.Config{
		Kind: nn.SAGE, InDim: ds.Dim(), Hidden: 64, OutDim: ds.Classes(), Layers: 3, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	e, err := NewEngine(ds, m, Options{Workers: 1, BatchCap: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Shutdown(context.Background())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Predict(context.Background(), []int32{int32(i % ds.Graph.NumVertices)}, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPredictObserved is BenchmarkPredict with the observability
// layer on: tracing ring live, per-stage spans and histograms recorded
// for every request. Compare against BenchmarkPredict to measure the
// hot-path instrumentation overhead; the acceptance bar is <2% on both
// ns/op and allocs/op (spans are stack values, so allocs must not move).
func BenchmarkPredictObserved(b *testing.B) {
	obs.Enable(obs.DefaultRingSize)
	defer obs.Disable()
	ds, err := dataset.Load("AR", dataset.Options{Scale: 1600, Seed: 1, Homophily: 0.85, FeatureNoise: 0.8})
	if err != nil {
		b.Fatal(err)
	}
	m, err := nn.NewModel(nn.Config{
		Kind: nn.SAGE, InDim: ds.Dim(), Hidden: 64, OutDim: ds.Classes(), Layers: 3, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	e, err := NewEngine(ds, m, Options{Workers: 1, BatchCap: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Shutdown(context.Background())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Predict(context.Background(), []int32{int32(i % ds.Graph.NumVertices)}, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWriteMetrics prices one /metrics scrape (off the request hot
// path — a scraper calls this every 15s or so).
func BenchmarkWriteMetrics(b *testing.B) {
	ds, err := dataset.Load("AR", dataset.Options{Scale: 1600, Seed: 1, Homophily: 0.85, FeatureNoise: 0.8})
	if err != nil {
		b.Fatal(err)
	}
	m, err := nn.NewModel(nn.Config{
		Kind: nn.SAGE, InDim: ds.Dim(), Hidden: 64, OutDim: ds.Classes(), Layers: 3, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	e, err := NewEngine(ds, m, Options{Workers: 1, BatchCap: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Shutdown(context.Background())
	if _, err := e.Predict(context.Background(), []int32{0}, false); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.WriteMetrics(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
