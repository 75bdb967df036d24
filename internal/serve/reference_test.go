package serve

import (
	"fmt"
	"slices"
	"testing"

	"wisegraph/internal/core"
	"wisegraph/internal/dataset"
	"wisegraph/internal/device"
	"wisegraph/internal/exec"
	"wisegraph/internal/graph"
	"wisegraph/internal/joint"
	"wisegraph/internal/kernels"
	"wisegraph/internal/nn"
	"wisegraph/internal/tensor"
	"wisegraph/internal/train"
)

// perVertexRef is the serving forward written straight from its
// definition, one vertex at a time: f(v, 0) is v's feature row; f(v, l) is
// layer l-1 run over the block that holds v and its DetSample'd in-edges
// alone, fed with f(·, l-1), through ReLU unless l is the last level. It
// shares nothing with the fleet — no level sets, no cross-target dedup,
// no cache, no spans, no RPC — which is what makes it an oracle for it.
type perVertexRef struct {
	ds      *dataset.Dataset
	csr     *graph.CSR
	model   *nn.Model
	plan    *joint.Result
	fanouts []int
	seed    uint64
	pt      *core.Partitioner
	ectx    *exec.Ctx              // runs the kernels engine the oracle is built for
	rows    map[[2]int32][]float32 // f(v, l) by (v, l), each computed once
}

// newPerVertexRef is the oracle for what e serves — its frozen plan,
// fan-outs and sampler seed — with every layer run on the named kernels
// engine. Serving has no engine option; this is where the engines meet it.
func newPerVertexRef(t *testing.T, ds *dataset.Dataset, m *nn.Model, e *Engine, engine string) *perVertexRef {
	pt := core.NewPartitioner()
	t.Cleanup(pt.Release)
	ectx := exec.NewCtx(device.New(device.A100()))
	ectx.Engine = engine
	return &perVertexRef{
		ds: ds, csr: ds.Graph.BuildCSRByDst(), model: m, plan: e.Plan(),
		fanouts: e.Options().Fanouts, seed: e.Options().Seed, pt: pt, ectx: ectx,
		rows: map[[2]int32][]float32{},
	}
}

// logits returns the reference top-level rows of nodes.
func (r *perVertexRef) logits(t *testing.T, nodes []int32) [][]float32 {
	out := make([][]float32, len(nodes))
	for i, n := range nodes {
		out[i] = r.row(t, n, r.model.Cfg.Layers)
	}
	return out
}

func (r *perVertexRef) row(t *testing.T, v int32, l int) []float32 {
	if l == 0 {
		return r.ds.Features.Row(int(v))
	}
	if row, ok := r.rows[[2]int32{v, int32(l)}]; ok {
		return row
	}
	L := r.model.Cfg.Layers
	slots := graph.DetSample(nil, r.csr, v, r.fanouts[L-l], r.seed)
	// The block's local id space: the target and its sources in ascending
	// parent order, the canonical order every sort key must see.
	in := []int32{v}
	for _, s := range slots {
		in = append(in, r.csr.Col[s])
	}
	slices.Sort(in)
	in = slices.Compact(in)
	local := func(p int32) int32 { i, _ := slices.BinarySearch(in, p); return int32(i) }

	g := &graph.Graph{NumVertices: len(in), NumTypes: 1}
	for _, s := range slots {
		g.Src = append(g.Src, local(r.csr.Col[s]))
		g.Dst = append(g.Dst, local(v))
		if r.csr.EType != nil {
			g.Type = append(g.Type, r.csr.EType[s])
			g.NumTypes = r.ds.Graph.NumTypes
		}
	}
	x := tensor.New(len(in), r.model.LayerDims()[l-1])
	for i, p := range in {
		copy(x.Row(i), r.row(t, p, l-1))
	}
	out, err := kernels.RunModelLayer(r.ectx, nn.NewGraphCtx(g), r.model, l-1, x,
		train.ReusePlanWith(r.pt, r.plan, g), r.plan.OpPlan)
	if err != nil {
		t.Fatalf("reference layer %d for vertex %d: %v", l-1, v, err)
	}
	row := slices.Clone(out.Row(int(local(v))))
	if l < L {
		for j, y := range row {
			if !(y > 0) {
				row[j] = 0
			}
		}
	}
	r.rows[[2]int32{v, int32(l)}] = row
	return row
}

// TestForwardMatchesPerVertexReference holds the one serving forward to an
// implementation that is not itself: engine logits must be bitwise-equal
// to the per-vertex definition for an untyped and a typed model, through
// one shard and through two, with the definition run on every execution
// engine. Both ways a shard's Compute gets a block's partition are held to
// it too: besides the tuned plan, a destination batch (dst-batch-32, the
// block born partitioned) and a plan that is not one (2d-32; src-32-type-1
// for RGCN, partitioned per block).
func TestForwardMatchesPerVertexReference(t *testing.T) {
	const v = 60
	nodes := []int32{0, 7, 7, 30, 44, 59}
	for _, kind := range []nn.ModelKind{nn.SAGE, nn.RGCN} {
		numTypes := 1
		other := "2d-32"
		if kind == nn.RGCN {
			numTypes = 2
			other = "src-32-type-1"
		}
		ds := testDataset(t, v, 300, 12, 5, numTypes, 11)
		m := testModel(t, ds, kind)
		// One frozen plan for the reference and every fleet under test:
		// the plan fixes the summation order.
		tuned := testEngine(t, ds, m, Options{Workers: 1, Seed: 9}).Plan()
		plans := []*joint.Result{tuned, withGraphPlan(t, tuned, "dst-batch-32"), withGraphPlan(t, tuned, other)}
		if _, ok := plans[1].GraphPlan.DstBatch(); !ok {
			t.Fatalf("%v is not a destination batch", plans[1].GraphPlan)
		}
		if _, ok := plans[2].GraphPlan.DstBatch(); ok {
			t.Fatalf("%v is a destination batch", plans[2].GraphPlan)
		}
		for pi, plan := range plans {
			served := make(map[int]*Engine)
			for _, shards := range []int{1, 2} {
				served[shards] = testEngine(t, ds, m, Options{
					Shards: shards, Workers: 2, Seed: 9, Fanouts: []int{3, 2}, Plan: plan,
				})
			}
			// The tuned plan meets every engine; the others the default.
			engines := kernels.EngineNames()
			if pi > 0 {
				engines = []string{""}
			}
			for _, engine := range engines {
				ref := newPerVertexRef(t, ds, m, served[1], engine)
				for _, shards := range []int{1, 2} {
					name := fmt.Sprintf("%v/%s/shards=%d", kind, engine, shards)
					if pi > 0 {
						name = fmt.Sprintf("%v/plan=%s/shards=%d", kind, plan.GraphPlan.Name, shards)
					}
					t.Run(name, func(t *testing.T) {
						got := predictLogits(t, served[shards], nodes)
						for i, want := range ref.logits(t, nodes) {
							for k := range want {
								if got[i][k] != want[k] {
									t.Fatalf("node %d logit %d: served %v != per-vertex reference %v", nodes[i], k, got[i][k], want[k])
								}
							}
						}
					})
				}
			}
		}
	}
}

// withGraphPlan returns res with its graph plan replaced by the enumerated
// plan of that name.
func withGraphPlan(t *testing.T, res *joint.Result, name string) *joint.Result {
	t.Helper()
	for _, gp := range core.EnumeratePlans([]core.Attr{core.AttrSrcID, core.AttrDstID, core.AttrEdgeType}) {
		if gp.Name == name {
			r := *res
			r.GraphPlan, r.Partition = gp, nil
			return &r
		}
	}
	t.Fatalf("no plan named %q", name)
	return nil
}
