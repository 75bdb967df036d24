// Multi-GPU training with adaptive operation placement: partitions a
// large-graph replica across four simulated devices and compares the
// static parallelization policies (DGL's data parallel, P3's hybrid)
// against WiseGraph's per-layer placement driven by the changing-data-
// volume pattern (paper §5.4, Figure 11, Table 2, Figure 20).
package main

import (
	"fmt"
	"log"

	"wisegraph"
	"wisegraph/internal/dist"
	"wisegraph/internal/nn"
)

func main() {
	ds, err := wisegraph.LoadDataset("PA", wisegraph.DatasetOptions{Seed: 5})
	if err != nil {
		log.Fatal(err)
	}
	c := wisegraph.NewCluster(4)
	gs := dist.Analyze(ds.Graph, c.N)
	fmt.Printf("graph %v partitioned over %d devices: %v\n", ds.Graph, c.N, gs)

	// A 3-layer GCN shaped like the paper's full-graph setting: wide
	// input features, narrow hidden layers.
	dims := []int{ds.Dim(), 32, 32, ds.Classes()}
	fmt.Printf("\nlayer dims: %v\n", dims)

	// Per-layer placement decisions WiseGraph makes.
	fmt.Println("\nWiseGraph per-layer placement (volume-driven):")
	for li := 0; li+1 < len(dims); li++ {
		p := dist.ChooseLayer(c, gs, wisegraph.GCN, dims[li], dims[li+1], true, true)
		fmt.Printf("  layer %d (%4d → %4d): %-7s  comm %.2f MB  (%.3f ms comm, %.3f ms compute)\n",
			li, dims[li], dims[li+1], p.Strategy, p.CommBytes/1e6, p.CommSecs*1e3, p.CompSecs*1e3)
	}

	// Iteration time under each policy.
	fmt.Println("\nper-iteration time by policy (simulated ms):")
	for _, pol := range []dist.Policy{dist.PolicyDGL, dist.PolicyROC, dist.PolicyDGCL, dist.PolicyP3, dist.PolicyWise} {
		t := dist.IterationTime(c, gs, wisegraph.GCN, dims, pol)
		fmt.Printf("  %-10s %8.3f\n", pol, t*1e3)
	}

	// The Figure 20 sweep: where static hybrids win and lose.
	fmt.Println("\nfirst-layer time vs hidden dimension (ms): DGL / P3 / WiseGraph")
	for _, hid := range []int{32, 128, 512, 1024} {
		d := []int{ds.Dim(), hid}
		fmt.Printf("  hidden %4d:  %7.3f / %7.3f / %7.3f\n", hid,
			dist.IterationTime(c, gs, wisegraph.GCN, d, dist.PolicyDGL)*1e3,
			dist.IterationTime(c, gs, wisegraph.GCN, d, dist.PolicyP3)*1e3,
			dist.IterationTime(c, gs, wisegraph.GCN, d, dist.PolicyWise)*1e3)
	}

	// Finally, run REAL distributed training: features sharded across the
	// four simulated devices, each device running the model's own layers
	// on the vertices it owns plus their fetched halo, halo exchanges with
	// exactly the modeled volumes, halo gradients returned to their owners
	// and parameter gradients all-reduced. Every model trains this way;
	// only GCN's body splits at its transform, so only GCN can place the
	// exchange after the neural operation (DP-post).
	for _, kind := range []nn.ModelKind{wisegraph.GCN, wisegraph.SAGE} {
		trainDistributed(c, ds, kind)
	}
}

// trainDistributed trains a 2-layer model of the given kind for 10 epochs
// across the cluster's devices and prints its loss, test accuracy and the
// bytes exchanged.
func trainDistributed(c dist.Cluster, ds *wisegraph.Dataset, kind nn.ModelKind) {
	fmt.Printf("\nreal distributed training (%d devices, %v):\n", c.N, kind)
	m, err := nn.NewModel(nn.Config{
		Kind: kind, InDim: ds.Dim(), Hidden: 32, OutDim: ds.Classes(),
		Layers: 2, Seed: 5,
	})
	if err != nil {
		log.Fatal(err)
	}
	eng := dist.NewEngine(c, ds.Graph)
	tr, err := dist.NewTrainer(eng, m, ds.Features, ds.Labels, ds.TrainMask, 0.01)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  per-layer placements chosen: %v\n", tr.Placements)
	for ep := 0; ep < 10; ep++ {
		loss, err := tr.Step()
		if err != nil {
			log.Fatal(err)
		}
		if ep%3 == 0 || ep == 9 {
			acc, err := tr.Accuracy(ds.TestMask)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  epoch %2d  loss %.4f  test acc %.3f  (comm so far %.1f MB)\n",
				ep, loss, acc, eng.CommBytes()/1e6)
		}
	}
}
