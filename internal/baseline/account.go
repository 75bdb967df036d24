package baseline

import (
	"sort"

	"wisegraph/internal/device"
	"wisegraph/internal/exec"
	"wisegraph/internal/nn"
)

const fb = 4.0 // float32 bytes

// accountTensorCentric prices the one-kernel-per-operation execution:
// indexing kernels materialize per-edge tensors in global memory (the
// paper's §2.2 "large redundancy of global memory data movement") while
// the neural kernels run at full dense efficiency on tensor cores.
func accountTensorCentric(ctx *exec.Ctx, lw LayerWork) error {
	v := float64(lw.V)
	e := float64(lw.E)
	f := float64(lw.F)
	fp := float64(lw.Fp)

	gather := func(name string, rows, width float64) error {
		if err := ctx.Alloc(rows * width * fb); err != nil {
			return err
		}
		ctx.Launch(device.Kernel{
			Name: name, Cat: device.CatIndexing,
			Bytes: (2*rows*width + rows) * fb,
		})
		return nil
	}
	scatter := func(name string, rows, width float64) {
		ctx.Launch(device.Kernel{
			Name: name, Cat: device.CatIndexing,
			FLOPs: rows * width,
			Bytes: (3*rows*width + rows) * fb,
		})
	}
	denseMM := func(name string, m, k, n float64) {
		ctx.Launch(device.Kernel{
			Name: name, Cat: device.CatNeural, TensorCore: true,
			FLOPs: 2 * m * k * n,
			Bytes: (m*k + k*n + m*n) * fb,
		})
	}

	switch lw.Kind {
	case nn.GCN:
		denseMM("gcn.xw", v, f, fp)
		if err := gather("gcn.gather", e, fp); err != nil {
			return err
		}
		scatter("gcn.scatter", e, fp)
	case nn.SAGE:
		denseMM("sage.self", v, f, fp)
		if err := gather("sage.gather", e, f); err != nil {
			return err
		}
		scatter("sage.scatter", e, f)
		denseMM("sage.neigh", v, f, fp)
	case nn.RGCN:
		// Relation-grouped execution (PyG/DGL RGCNConv): per type, gather
		// that type's sources, dense matmul, scatter. The full per-edge
		// message tensor [E, F'] stays live across the loop.
		if err := ctx.Alloc(e * maxf(f, fp) * fb); err != nil {
			return err
		}
		denseMM("rgcn.self", v, f, fp)
		for t, et := range lw.EdgesPerType {
			if et == 0 {
				continue
			}
			ef := float64(et)
			if err := gather(kname("rgcn.gather", t), ef, f); err != nil {
				return err
			}
			denseMM(kname("rgcn.mm", t), ef, f, fp)
			scatter(kname("rgcn.scatter", t), ef, fp)
		}
	case nn.GAT:
		denseMM("gat.z", v, f, fp)
		if err := ctx.Alloc(2 * e * fp * fb); err != nil {
			return err
		}
		if err := gather("gat.zsrc", e, fp); err != nil {
			return err
		}
		if err := gather("gat.zdst", e, fp); err != nil {
			return err
		}
		// score + leaky-relu kernel
		ctx.Launch(device.Kernel{Name: "gat.score", Cat: device.CatNeural,
			FLOPs: 4 * e * fp, Bytes: (2*e*fp + 2*e) * fb})
		// segment softmax: three passes over the edge scores
		for _, pass := range []string{"max", "expsum", "norm"} {
			ctx.Launch(device.Kernel{Name: "gat.softmax." + pass, Cat: device.CatNeural,
				FLOPs: e, Bytes: 2 * e * fb})
		}
		// weighted scatter of per-edge messages
		scatter("gat.aggregate", e, fp)
	case nn.SAGELSTM:
		// Degree-bucketed LSTM (DGL): bucket vertices by in-degree; each
		// bucket of degree d runs d sequential dense cell steps. Kernel
		// count explodes with the number of distinct degrees — the
		// tensor-centric cost the paper reports for LSTM.
		if err := ctx.Alloc(e * f * fb); err != nil {
			return err
		}
		if err := gather("lstm.gather", e, f); err != nil {
			return err
		}
		buckets := degreeBuckets(lw.InDeg)
		hd := fp
		for deg, count := range buckets {
			cf := float64(count)
			for step := 0; step < deg; step++ {
				ctx.Launch(device.Kernel{Name: "lstm.step", Cat: device.CatNeural, TensorCore: true,
					FLOPs:       2 * cf * (f + hd) * 4 * hd,
					Bytes:       (cf*(f+hd) + (f+hd)*4*hd + cf*4*hd) * fb,
					Parallelism: cf,
				})
			}
		}
		denseMM("lstm.self", v, f, fp)
		denseMM("lstm.neigh", v, fp, fp)
	}
	return nil
}

// accountVertexCentric prices the fused one-kernel-per-layer execution
// with one task per destination vertex and edge-by-edge inner compute: no
// data reuse across edges (weights re-fetched per edge), no tensor cores,
// load balance set by the degree distribution.
func accountVertexCentric(ctx *exec.Ctx, lw LayerWork, balanced bool) error {
	accountDenseTransforms(ctx, lw)
	flopsPerEdge, bytesPerEdge := perEdgeCost(lw)
	spec := ctx.Dev.Spec
	times := make([]float64, 0, lw.V)
	var totFlops, totBytes float64
	for _, d := range lw.InDeg {
		if d == 0 {
			continue
		}
		df := float64(d)
		times = append(times, perUnit(spec, df*flopsPerEdge, df*bytesPerEdge))
		totFlops += df * flopsPerEdge
		totBytes += df * bytesPerEdge
	}
	if balanced {
		sort.Sort(sort.Reverse(sort.Float64Slice(times)))
	}
	ctx.Launch(device.Kernel{
		Name: "fused.vertex", Cat: device.CatNeural,
		FLOPs: totFlops, Bytes: totBytes,
		UnitTimes: times,
	})
	return nil
}

// accountEdgeCentric prices one task per edge (perfectly balanced, still
// no reuse or tensor cores).
func accountEdgeCentric(ctx *exec.Ctx, lw LayerWork) error {
	accountDenseTransforms(ctx, lw)
	flopsPerEdge, bytesPerEdge := perEdgeCost(lw)
	e := float64(lw.E)
	t := perUnit(ctx.Dev.Spec, flopsPerEdge, bytesPerEdge)
	// e identical tasks: makespan ≈ ceil(e/units)·t — model directly.
	units := float64(ctx.Dev.Spec.NumUnits)
	rounds := (e + units - 1) / units
	ctx.Launch(device.Kernel{
		Name: "fused.edge", Cat: device.CatNeural,
		FLOPs:     e * flopsPerEdge,
		Bytes:     e * bytesPerEdge,
		UnitTimes: []float64{rounds * t}, // a single synthetic critical path
	})
	return nil
}

// accountTensorCoreTile prices TC-GNN: adjacency condensed into 16×16
// dense tiles processed on tensor cores, with intra-tile reuse.
func accountTensorCoreTile(ctx *exec.Ctx, lw LayerWork) error {
	v := float64(lw.V)
	f := float64(lw.F)
	fp := float64(lw.Fp)
	tiles := float64(lw.Tiles)
	// dense transform on tensor cores
	ctx.Launch(device.Kernel{Name: "tcgnn.xw", Cat: device.CatNeural, TensorCore: true,
		FLOPs: 2 * v * f * fp, Bytes: (v*f + f*fp + v*fp) * fb})
	// tile aggregation: every non-empty 16×16 tile runs a full dense MMA
	// against the feature panel regardless of how few edges it holds —
	// the padding waste that makes TC-GNN lose on sparse graphs (paper
	// Figure 13d/e) and win only where tiles are dense.
	ctx.Launch(device.Kernel{Name: "tcgnn.spmm", Cat: device.CatNeural, TensorCore: true,
		FLOPs: tiles * 2 * 16 * 16 * fp,
		Bytes: (tiles*16*fp*2 + v*fp) * fb})
	return nil
}

// accountDenseTransforms charges the shared dense feature transforms
// (X·W, projections) that fused graph-centric kernels still perform —
// the same tensor-core kernels every strategy runs; only models whose
// per-edge cost does not already include the transform need them.
func accountDenseTransforms(ctx *exec.Ctx, lw LayerWork) {
	v := float64(lw.V)
	f := float64(lw.F)
	fp := float64(lw.Fp)
	mm := func(name string, m, k, n float64) {
		ctx.Launch(device.Kernel{Name: name, Cat: device.CatNeural, TensorCore: true,
			FLOPs: 2 * m * k * n, Bytes: (m*k + k*n + m*n) * fb})
	}
	switch lw.Kind {
	case nn.GCN:
		mm("fused.xw", v, f, fp)
	case nn.SAGE:
		mm("fused.self", v, f, fp)
		mm("fused.neigh", v, f, fp)
	}
	// RGCN/GAT/LSTM recompute weights per edge inside the fused kernel —
	// that inefficiency IS the per-edge cost, so nothing extra here
	// (except RGCN/LSTM self weights, negligible next to per-edge work).
}

// l2ReuseFactor models on-chip caching of the shared weight matrix during
// edge-by-edge compute: each SM re-reads W from L2 rather than HBM, so
// the effective per-edge weight traffic is a fraction of the full matrix.
const l2ReuseFactor = 8

// perEdgeCost returns the FLOPs and bytes of one fused edge-by-edge step:
// no batching or tensor cores, and weight traffic only amortized by the
// cache (the graph-centric inefficiency of paper Figure 3a).
func perEdgeCost(lw LayerWork) (flops, bytes float64) {
	f := float64(lw.F)
	fp := float64(lw.Fp)
	switch lw.Kind {
	case nn.GCN:
		// addition over transformed rows: load XW[src], accumulate
		return fp, (fp + 1) * fb
	case nn.SAGE:
		// addition over raw features: load X[src], accumulate
		return f, (f + 1) * fb
	case nn.RGCN:
		// per-edge vector–matrix multiply, weight re-fetched per edge
		// (amortized by the cache across an SM's edges)
		return 2 * f * fp, (f + f*fp/l2ReuseFactor + fp) * fb
	case nn.GAT:
		// per-edge projection recompute + score + weighted accumulate
		return 2*f*fp + 4*fp, (f + f*fp/l2ReuseFactor + fp) * fb
	case nn.SAGELSTM:
		// one LSTM cell per edge, weights re-fetched through the cache
		hd := fp
		return 2 * (f + hd) * 4 * hd, (f + (f+hd)*4*hd/l2ReuseFactor + hd) * fb
	}
	return 0, 0
}

// degreeBuckets maps degree → vertex count (zero degrees skipped).
func degreeBuckets(inDeg []int32) map[int]int {
	b := make(map[int]int)
	for _, d := range inDeg {
		if d > 0 {
			b[int(d)]++
		}
	}
	return b
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func kname(base string, t int) string {
	// small helper avoiding fmt in the hot accounting loop
	const digits = "0123456789"
	if t < 10 {
		return base + "." + digits[t:t+1]
	}
	return base + "." + digits[t/10:t/10+1] + digits[t%10:t%10+1]
}
