// Package dataset materializes the seven evaluation datasets from the
// paper's Table 1 as scaled synthetic replicas (the real OGB data cannot be
// downloaded in this environment; see DESIGN.md for the substitution
// rationale). Each dataset keeps the paper's feature dimension, class
// count, density regime and degree skew, with vertex/edge counts divided
// by a configurable scale factor so experiments run on CPU.
package dataset

import (
	"fmt"
	"sort"

	"wisegraph/internal/graph"
	"wisegraph/internal/graph/gen"
	"wisegraph/internal/tensor"
)

// Spec describes a dataset before materialization.
type Spec struct {
	Name     string
	Vertices int // paper-scale vertex count
	Edges    int // paper-scale edge count
	Dim      int // input embedding dimension (paper Table 1)
	Classes  int // classification classes (paper Table 1)
	Kind     gen.Kind
	Skew     float64
	NumTypes int  // edge types for RGCN workloads
	MultiGPU bool // paper places it in the multi-GPU group
}

// Specs lists the paper's Table 1 datasets.
var Specs = []Spec{
	{Name: "AR", Vertices: 169_000, Edges: 2_300_000, Dim: 128, Classes: 40, Kind: gen.PowerLaw, Skew: 0.9, NumTypes: 8},
	{Name: "PR", Vertices: 2_400_000, Edges: 123_000_000, Dim: 100, Classes: 47, Kind: gen.PowerLaw, Skew: 1.1, NumTypes: 8},
	{Name: "RE", Vertices: 233_000, Edges: 114_000_000, Dim: 602, Classes: 41, Kind: gen.PowerLaw, Skew: 1.2, NumTypes: 4},
	{Name: "PA-S", Vertices: 1_200_000, Edges: 1_500_000, Dim: 128, Classes: 172, Kind: gen.SampledFanout, Skew: 0.3, NumTypes: 8},
	{Name: "FS-S", Vertices: 1_400_000, Edges: 1_600_000, Dim: 384, Classes: 64, Kind: gen.SampledFanout, Skew: 0.3, NumTypes: 4},
	{Name: "PA", Vertices: 111_000_000, Edges: 1_600_000_000, Dim: 128, Classes: 172, Kind: gen.RMAT, Skew: 0.9, NumTypes: 8, MultiGPU: true},
	{Name: "FS", Vertices: 66_000_000, Edges: 3_600_000_000, Dim: 384, Classes: 64, Kind: gen.RMAT, Skew: 1.0, NumTypes: 4, MultiGPU: true},
}

// SpecByName returns the spec for a dataset name.
func SpecByName(name string) (Spec, error) {
	for _, s := range Specs {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("dataset: unknown dataset %q", name)
}

// Options control materialization.
type Options struct {
	// Scale divides the paper-scale vertex and edge counts. The default
	// (0) picks a per-dataset factor that yields a few tens of thousands
	// of edges — large enough for partition statistics to be meaningful,
	// small enough for CPU benches.
	Scale int
	// FeatureDim overrides the paper dimension (0 keeps it).
	FeatureDim int
	Seed       uint64
	// Homophily is the fraction of intra-community edges used to make
	// planted labels learnable. Default 0.7.
	Homophily float64
	// FeatureNoise scales the per-vertex noise around class centers
	// (default 1.4). Lower values make the task easier; accuracy
	// experiments use ~0.8 to land in the paper's 50–70% band.
	FeatureNoise float64
}

// Dataset is a materialized dataset: graph, input features, labels, and
// train/val/test splits.
type Dataset struct {
	Spec      Spec
	Scale     int
	Graph     *graph.Graph
	Features  *tensor.Tensor // [V, Dim]
	Labels    []int32        // [V]
	TrainMask []int32        // vertex ids
	ValMask   []int32
	TestMask  []int32
}

// Dim returns the materialized feature dimension.
func (d *Dataset) Dim() int { return d.Features.Dim(1) }

// Classes returns the class count.
func (d *Dataset) Classes() int { return d.Spec.Classes }

// DefaultScale returns the default scale divisor for a spec so every
// dataset materializes to roughly bench-sized graphs.
func DefaultScale(s Spec) int {
	const targetEdges = 60_000
	sc := s.Edges / targetEdges
	if sc < 1 {
		sc = 1
	}
	return sc
}

// Load materializes the named dataset.
func Load(name string, opts Options) (*Dataset, error) {
	spec, err := SpecByName(name)
	if err != nil {
		return nil, err
	}
	return Materialize(spec, opts), nil
}

// Materialize builds a dataset from its spec.
func Materialize(spec Spec, opts Options) *Dataset {
	scale := opts.Scale
	if scale <= 0 {
		scale = DefaultScale(spec)
	}
	v := spec.Vertices / scale
	// Floor the vertex count: scaling V and E by the same factor keeps
	// the degree distribution but collapses very dense graphs (RE) into
	// near-complete multigraphs whose adjacency structure is degenerate.
	// A floor keeps the adjacency sparse while the degree skew survives.
	if floor := min(spec.Vertices, 2000); v < floor {
		v = floor
	}
	e := spec.Edges / scale
	if e < 4*v {
		// keep density at least moderate so layers have work; sampled
		// datasets (PA-S, FS-S) intentionally stay sparse
		if spec.Kind != gen.Uniform && spec.Kind != gen.SampledFanout {
			e = 4 * v
		} else if e < v {
			e = v
		}
	}
	hom := opts.Homophily
	if hom == 0 {
		hom = 0.7
	}
	res := gen.Generate(gen.Config{
		NumVertices: v,
		NumEdges:    e,
		Kind:        spec.Kind,
		Skew:        spec.Skew,
		NumTypes:    spec.NumTypes,
		NumBlocks:   spec.Classes,
		Homophily:   hom,
		Seed:        opts.Seed ^ hashName(spec.Name),
	})

	dim := spec.Dim
	if opts.FeatureDim > 0 {
		dim = opts.FeatureDim
	}
	rng := tensor.NewRNG(opts.Seed ^ hashName(spec.Name) ^ 0xfeed)
	noise := opts.FeatureNoise
	if noise == 0 {
		noise = 1.4
	}
	v = res.Graph.NumVertices // generators may round layer sizes
	ds := &Dataset{Spec: spec, Scale: scale, Graph: res.Graph}
	ds.Labels = res.Block
	ds.Features = plantFeatures(v, dim, spec.Classes, res.Block, noise, rng)
	ds.TrainMask, ds.ValMask, ds.TestMask = split(v, rng)
	return ds
}

// plantFeatures builds class-conditioned features: each class has a random
// center; vertex features are center + noise, so a GNN that denoises over
// homophilous neighborhoods can recover the label.
func plantFeatures(v, dim, classes int, label []int32, noise float64, rng *tensor.RNG) *tensor.Tensor {
	centers := tensor.New(classes, dim)
	tensor.Uniform(centers, rng, -1, 1)
	feat := tensor.New(v, dim)
	// One row of normals at a time: the draws, then the vector Box–Muller.
	norm, tmp := make([]float64, dim), make([]float64, dim)
	for i := 0; i < v; i++ {
		c := centers.Row(int(label[i]))
		row := feat.Row(i)
		rng.NormFloat64s(norm, tmp)
		for j := range row {
			row[j] = c[j] + float32(noise*norm[j])
		}
	}
	return feat
}

// split partitions vertices 60/20/20 into train/val/test deterministically.
func split(v int, rng *tensor.RNG) (train, val, test []int32) {
	perm := make([]int32, v)
	for i := range perm {
		perm[i] = int32(i)
	}
	for i := v - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	nTrain := v * 6 / 10
	nVal := v * 2 / 10
	train = sortedCopy(perm[:nTrain])
	val = sortedCopy(perm[nTrain : nTrain+nVal])
	test = sortedCopy(perm[nTrain+nVal:])
	return train, val, test
}

func sortedCopy(xs []int32) []int32 {
	out := append([]int32(nil), xs...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func hashName(name string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return h
}
