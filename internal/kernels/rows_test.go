package kernels

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"wisegraph/internal/core"
	"wisegraph/internal/device"
	"wisegraph/internal/exec"
	"wisegraph/internal/graph"
	"wisegraph/internal/nn"
	"wisegraph/internal/tensor"
)

// sampledBlock builds a seeded random bipartite block the way the serving
// forward does: n input vertices in one ascending local id space, a subset
// of them targets, each target's in-edges contiguous with a fan-out in
// 0..12 drawn from the whole input set. Whatever the draw, the first
// target is isolated and the second reads the first, so a block always has
// a destination without edges and a destination that is also a source.
func sampledBlock(seed uint64, n, types int) (*graph.Graph, []int32) {
	rng := tensor.NewRNG(seed)
	var targets []int32
	for v := 0; v < n; v++ {
		if rng.Intn(5) == 0 {
			targets = append(targets, int32(v))
		}
	}
	for len(targets) < 3 {
		targets = append(targets, int32(len(targets)))
	}
	g := &graph.Graph{NumVertices: n, NumTypes: types}
	for i, d := range targets {
		fan := 1 + rng.Intn(12)
		if i == 0 {
			fan = 0
		}
		for k := 0; k < fan; k++ {
			src := int32(rng.Intn(n))
			if i == 1 && k == 0 {
				src = targets[0]
			}
			g.Src = append(g.Src, src)
			g.Dst = append(g.Dst, d)
			g.Type = append(g.Type, int32(rng.Intn(types)))
		}
	}
	return g, targets
}

// blockPlans picks, from the plans valid for kind, the vertex-centric
// plan, the whole-graph plan where valid, and every plan that splits some
// destination's edges across runs, up to three of those.
func blockPlans(kind nn.ModelKind, g *graph.Graph) (plans []core.GraphPlan, fragmenting int) {
	for _, gp := range plansFor(kind) {
		switch {
		case gp.Name == "vertex-centric" || gp.Name == "whole-graph":
			plans = append(plans, gp)
		case fragmenting < 3 && splitsDestination(core.PartitionGraph(g, gp, allAttrs()), g.Dst):
			plans = append(plans, gp)
			fragmenting++
		}
	}
	return plans, fragmenting
}

// splitsDestination reports whether some destination's edges form more
// than one run (consecutive task edges sharing a dst) across the
// partition's tasks.
func splitsDestination(part *core.Partition, dst []int32) bool {
	seen := map[int32]bool{}
	for ti := 0; ti < part.NumTasks(); ti++ {
		edges := part.TaskEdges(ti)
		for i, e := range edges {
			d := dst[e]
			if i > 0 && dst[edges[i-1]] == d {
				continue
			}
			if seen[d] {
				return true
			}
			seen[d] = true
		}
	}
	return false
}

// allRows returns the identity row set 0..n-1.
func allRows(n int) []int32 {
	ids := make([]int32, n)
	for i := range ids {
		ids[i] = int32(i)
	}
	return ids
}

// rowsCtx is the context a layer over dsts runs on: gc's graph in part's
// task order, dsts its destination rows.
func rowsCtx(t *testing.T, gc *nn.GraphCtx, dsts []int32, part *core.Partition) *nn.GraphCtx {
	t.Helper()
	lc, err := nn.NewGraphCtxOrder(gc.G, part.Order, dsts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lc.Release)
	return lc
}

func layerRows(t *testing.T, engine string, gc *nn.GraphCtx, m *nn.Model, x *tensor.Tensor, dsts []int32, part *core.Partition, op Plan) *tensor.Tensor {
	t.Helper()
	ctx := exec.NewCtx(device.New(device.A100()))
	ctx.Engine = engine
	out, err := RunModelLayerRows(ctx, rowsCtx(t, gc, dsts, part), m, 0, x, part, op)
	if err != nil {
		t.Fatalf("engine %s: %v", engine, err)
	}
	return out
}

// TestDestinationRowsBitwiseEqualAllRows is the destination-only contract:
// for every model, engine, operation plan and a spread of graph plans, on
// seeded sampled blocks, the rows produced for the targets alone carry the
// same bits as those rows of the execution that produces every row, and
// the explicit identity row set is the all-rows entry point.
func TestDestinationRowsBitwiseEqualAllRows(t *testing.T) {
	const f, fp = 6, 8
	for kind := nn.ModelKind(0); kind < nn.NumModels; kind++ {
		t.Run(kind.String(), func(t *testing.T) {
			m, err := nn.NewModel(nn.Config{Kind: kind, InDim: f, Hidden: fp, OutDim: 4, Layers: 2, Heads: 2, NumTypes: 4, Seed: 2})
			if err != nil {
				t.Fatal(err)
			}
			for seed := uint64(1); seed <= 4; seed++ {
				g, targets := sampledBlock(seed, 40+int(seed)*17, 4)
				gc := nn.NewGraphCtx(g)
				x := tensor.New(g.NumVertices, f)
				tensor.Uniform(x, tensor.NewRNG(seed+100), -1, 1)
				all := allRows(g.NumVertices)
				plans, fragmenting := blockPlans(kind, g)
				if len(plans) < 3 && kind != nn.SAGELSTM {
					t.Fatalf("seed %d: only %d graph plans", seed, len(plans))
				}
				if fragmenting == 0 && kind != nn.SAGELSTM { // LSTM plans keep a destination whole by construction
					t.Fatalf("seed %d: no plan fragments a destination across runs", seed)
				}
				for _, gp := range plans {
					part := core.PartitionGraph(g, gp, allAttrs())
					for _, op := range opPlans {
						for _, engine := range EngineNames() {
							name := fmt.Sprintf("seed %d plan %v op %+v engine %s", seed, gp, op, engine)
							full := layerRows(t, engine, gc, m, x, all, part, op)
							if full.Dim(0) != g.NumVertices || full.Dim(1) != fp {
								t.Fatalf("%s: all-rows shape %v", name, full.Shape())
							}
							ctx := exec.NewCtx(device.New(device.A100()))
							ctx.Engine = engine
							entry, err := RunModelLayer(ctx, gc, m, 0, x, part, op)
							if err != nil {
								t.Fatalf("%s: %v", name, err)
							}
							for i, v := range full.Data() {
								if math.Float32bits(entry.Data()[i]) != math.Float32bits(v) {
									t.Fatalf("%s: RunModelLayer[%d] = %v, identity row set %v", name, i, entry.Data()[i], v)
								}
							}
							got := layerRows(t, engine, gc, m, x, targets, part, op)
							if got.Dim(0) != len(targets) || got.Dim(1) != fp {
								t.Fatalf("%s: shape %v for %d targets", name, got.Shape(), len(targets))
							}
							for i, d := range targets {
								for j, v := range got.Row(i) {
									if w := full.Row(int(d))[j]; math.Float32bits(v) != math.Float32bits(w) {
										t.Fatalf("%s: target %d col %d = %v, all-rows run has %v", name, d, j, v, w)
									}
								}
							}
							tensor.Put(full)
							tensor.Put(entry)
							tensor.Put(got)
						}
					}
				}
			}
		})
	}
}

// TestDenseFLOPsChargeDestinationRows pins the accounting: over a block
// of n inputs and d targets SAGE's two dense transforms are destination-
// side (2·2·d·F·F' FLOPs) while GCN's X·W is source-side and stays at
// 2·n·F·F'.
func TestDenseFLOPsChargeDestinationRows(t *testing.T) {
	const f, fp = 6, 8
	g, targets := sampledBlock(7, 90, 1)
	n, d := float64(g.NumVertices), float64(len(targets))
	gc := nn.NewGraphCtx(g)
	x := tensor.New(g.NumVertices, f)
	part := core.PartitionGraph(g, core.VertexCentric(), allAttrs())
	lc := rowsCtx(t, gc, targets, part)
	for _, c := range []struct {
		kind  nn.ModelKind
		names []string
		want  float64
	}{
		{nn.SAGE, []string{"sage.self", "sage.neigh"}, 2 * 2 * d * f * fp},
		{nn.GCN, []string{"gcn.xw"}, 2 * n * f * fp},
	} {
		m, err := nn.NewModel(nn.Config{Kind: c.kind, InDim: f, Hidden: fp, OutDim: 4, Layers: 2, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		for _, engine := range EngineNames() {
			ctx := exec.NewCtx(device.New(device.A100()))
			ctx.Engine = engine
			if _, err := RunModelLayerRows(ctx, lc, m, 0, x, part, Plan{Batched: true}); err != nil {
				t.Fatal(err)
			}
			var got float64
			for _, name := range c.names {
				got += ctx.Dev.KernelStats()[name].FLOPs
			}
			if got != c.want {
				t.Fatalf("%v %s: dense FLOPs %v for n=%v d=%v, want %v", c.kind, engine, got, n, d, c.want)
			}
		}
	}
}

// TestRowSetRejected: a destination row set the contract does not allow —
// an edge ending outside it, ids out of order, repeated or out of range —
// is an error from both constructors of the context a layer runs over,
// never a silently dropped contribution.
func TestRowSetRejected(t *testing.T) {
	g, targets := sampledBlock(3, 60, 4)
	part := core.PartitionGraph(g, core.VertexCentric(), allAttrs())
	inDeg := g.InDegrees()
	swapped := append([]int32(nil), targets...)
	swapped[0], swapped[1] = swapped[1], swapped[0]
	for _, c := range []struct {
		name, want string
		dsts       []int32
	}{
		{"edge to a non-target", "edges end outside", targets[:len(targets)-1]},
		{"descending", "strictly ascending", swapped},
		{"repeated", "strictly ascending", append([]int32{targets[0]}, targets...)},
		{"out of range", "strictly ascending", append(append([]int32(nil), targets...), int32(g.NumVertices))},
	} {
		if _, err := nn.NewGraphCtxOrder(g, part.Order, c.dsts); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s, NewGraphCtxOrder: err = %v, want %q", c.name, err, c.want)
		}
		// The block's edges are grouped by target, so each row's in-degree
		// is its run.
		rowPtr := []int32{0}
		for _, d := range c.dsts {
			n := int32(0)
			if int(d) < g.NumVertices {
				n = inDeg[d]
			}
			rowPtr = append(rowPtr, rowPtr[len(rowPtr)-1]+n)
		}
		if _, err := nn.NewGraphCtxRows(g, c.dsts, rowPtr); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s, NewGraphCtxRows: err = %v, want %q", c.name, err, c.want)
		}
	}
}
