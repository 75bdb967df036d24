// Command wggen generates synthetic graphs and dataset replicas, writing
// them as edge-list CSV (plus an optional labels file). Useful for
// inspecting the generators or feeding other tools.
//
// Usage:
//
//	wggen -dataset AR -out ar_edges.csv
//	wggen -kind powerlaw -v 10000 -e 100000 -types 8 -out g.csv
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"

	"wisegraph"
	"wisegraph/internal/graph/gen"
)

func main() {
	var (
		dsName = flag.String("dataset", "", "dataset replica to emit (AR, PR, RE, PA-S, FS-S, PA, FS)")
		kind   = flag.String("kind", "powerlaw", "generator: powerlaw | uniform | rmat | fanout")
		v      = flag.Int("v", 10000, "vertices (raw generator mode)")
		e      = flag.Int("e", 100000, "edges (raw generator mode)")
		types  = flag.Int("types", 1, "edge types")
		skew   = flag.Float64("skew", 0.9, "degree skew")
		scale  = flag.Int("scale", 0, "dataset scale divisor override")
		seed   = flag.Uint64("seed", 1, "random seed")
		out    = flag.String("out", "", "output edge CSV (default stdout)")
		labels = flag.String("labels", "", "optional labels CSV output")
	)
	flag.Parse()

	var g *wisegraph.Graph
	var lab []int32
	if *dsName != "" {
		ds, err := wisegraph.LoadDataset(*dsName, wisegraph.DatasetOptions{Scale: *scale, Seed: *seed})
		if err != nil {
			fatal(err)
		}
		g, lab = ds.Graph, ds.Labels
	} else {
		var k gen.Kind
		switch *kind {
		case "powerlaw":
			k = gen.PowerLaw
		case "uniform":
			k = gen.Uniform
		case "rmat":
			k = gen.RMAT
		case "fanout":
			k = gen.SampledFanout
		default:
			fatal(fmt.Errorf("unknown generator %q", *kind))
		}
		res := gen.Generate(gen.Config{
			NumVertices: *v, NumEdges: *e, Kind: k, Skew: *skew,
			NumTypes: *types, Seed: *seed,
		})
		g, lab = res.Graph, res.Block
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	if err := g.WriteCSV(w); err != nil {
		fatal(err)
	}

	if *labels != "" && lab != nil {
		f, err := os.Create(*labels)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		lw := bufio.NewWriter(f)
		fmt.Fprintln(lw, "vertex,label")
		for vi, l := range lab {
			fmt.Fprintf(lw, "%d,%d\n", vi, l)
		}
		if err := lw.Flush(); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
