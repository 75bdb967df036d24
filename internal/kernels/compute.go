package kernels

import (
	"fmt"
	"math"
	"slices"

	"wisegraph/internal/core"
	"wisegraph/internal/dfg"
	"wisegraph/internal/exec"
	"wisegraph/internal/graph"
	"wisegraph/internal/nn"
	"wisegraph/internal/obs"
	"wisegraph/internal/tensor"
)

// RunModel executes a full forward pass with the gTask strategy: shared
// dense transforms as per-layer tensor-core kernels, then one fused kernel
// per layer whose work items are the partition's gTasks. The layer
// execution itself goes through the Engine selected by ctx.Engine (see
// engine.go); the numeric output is computed by the engine (not delegated
// to the reference), so tests can verify the gTask machinery end to end.
func RunModel(ctx *exec.Ctx, gc *nn.GraphCtx, m *nn.Model, x *tensor.Tensor, part *core.Partition, plan Plan) (*tensor.Tensor, error) {
	eng, err := selectFor(ctx.Engine, m.Cfg.Kind, part.Plan)
	if err != nil {
		return nil, err
	}
	sp := obs.Begin(obs.StageExec, ctx.TraceID)
	defer sp.End()
	// On a full graph every vertex is a destination.
	all := allRows(gc.NumVertices())
	defer tensor.PutI32(all)
	cur := x
	for li, layer := range m.Layers() {
		sh := LayerShape{Kind: m.Cfg.Kind, F: layer.InDim(), Fp: layer.OutDim(), Types: m.Cfg.NumTypes}
		out, err := eng.RunLayer(ctx, gc, layer, sh, cur, all, part, plan)
		if err != nil {
			return nil, err
		}
		if ctx.Compute {
			prev := cur
			if li < len(m.Layers())-1 {
				cur = tensor.ReLU(tensor.Get(out.Shape()...), out)
				tensor.Put(out)
			} else {
				cur = out
			}
			if prev != x {
				tensor.Put(prev)
			}
		}
	}
	if !ctx.Compute {
		return nil, nil
	}
	return cur, nil
}

// RunModelLayerRows executes exactly one layer of the model through the
// engine selected by ctx.Engine and returns the rows of dsts (strictly
// ascending local ids, see Engine.RunLayer) as a compact [len(dsts),F']
// tensor — the layer-boundary entry the serving tier's leveled forward
// uses: a sampled block's targets are its only destinations, so only their
// rows are transformed. No activation is applied: the caller owns the ReLU
// (and must match RunModel's placement — after every layer but the last)
// so cached rows and freshly computed rows go through identical math. The
// span accounting mirrors RunModel: the call is recorded under StageExec
// against ctx.TraceID.
func RunModelLayerRows(ctx *exec.Ctx, gc *nn.GraphCtx, m *nn.Model, li int, x *tensor.Tensor, dsts []int32, part *core.Partition, plan Plan) (*tensor.Tensor, error) {
	sp := obs.Begin(obs.StageExec, ctx.TraceID)
	defer sp.End()
	eng, err := selectFor(ctx.Engine, m.Cfg.Kind, part.Plan)
	if err != nil {
		return nil, err
	}
	layers := m.Layers()
	if li < 0 || li >= len(layers) {
		return nil, fmt.Errorf("kernels: layer %d out of range [0,%d)", li, len(layers))
	}
	layer := layers[li]
	sh := LayerShape{Kind: m.Cfg.Kind, F: layer.InDim(), Fp: layer.OutDim(), Types: m.Cfg.NumTypes}
	return eng.RunLayer(ctx, gc, layer, sh, x, dsts, part, plan)
}

// RunModelLayer is RunModelLayerRows with every vertex of the block as a
// destination: the output has one row per input row.
func RunModelLayer(ctx *exec.Ctx, gc *nn.GraphCtx, m *nn.Model, li int, x *tensor.Tensor, part *core.Partition, plan Plan) (*tensor.Tensor, error) {
	all := allRows(gc.NumVertices())
	defer tensor.PutI32(all)
	return RunModelLayerRows(ctx, gc, m, li, x, all, part, plan)
}

// selectFor resolves the engine and rejects a graph plan that cannot
// execute the model (ValidPlanFor): every engine runs every model under
// every valid plan.
func selectFor(name string, kind nn.ModelKind, plan core.GraphPlan) (Engine, error) {
	eng, err := Select(name)
	if err == nil && !ValidPlanFor(kind, plan) {
		err = fmt.Errorf("kernels: plan %v cannot execute %v", plan, kind)
	}
	return eng, err
}

// allRows returns the identity row set 0..n-1 in pooled storage.
func allRows(n int) []int32 {
	ids := tensor.GetI32(n)
	for i := range ids {
		ids[i] = int32(i)
	}
	return ids
}

// rowSet is the destination row set of one layer execution: ids are the
// local vertex ids whose output rows are produced, and at[ids[i]] == i
// places vertex ids[i] in the compact output. Entries of at for other
// vertices are never read: newRowSet has checked that no edge ends there.
type rowSet struct {
	ids []int32
	at  []int32
}

// newRowSet checks that dsts is strictly ascending inside the block and
// that every edge of g ends in it (the in-degrees of the set sum to the
// edge count exactly when none ends elsewhere). Release the set when the
// layer is done.
func newRowSet(g *graphT, dsts []int32) (rowSet, error) {
	inDeg := g.InDegrees()
	prev, edges := int32(-1), 0
	for _, d := range dsts {
		if d <= prev || int(d) >= g.NumVertices {
			return rowSet{}, fmt.Errorf("kernels: destination rows must be strictly ascending ids in [0,%d), got %d after %d", g.NumVertices, d, prev)
		}
		edges += int(inDeg[d])
		prev = d
	}
	if edges != g.NumEdges() {
		return rowSet{}, fmt.Errorf("kernels: %d of %d edges end outside the %d destination rows", g.NumEdges()-edges, g.NumEdges(), len(dsts))
	}
	at := tensor.GetI32(g.NumVertices)
	for i, d := range dsts {
		at[d] = int32(i)
	}
	return rowSet{ids: dsts, at: at}, nil
}

func (rs rowSet) release() { tensor.PutI32(rs.at) }

// invDegOf returns the mean-normalization weight of an edge (1/in-degree
// of its destination, 0 for isolated destinations).
func invDegOf(g *graphT) func(int32) float32 {
	inDeg := g.InDegrees()
	return func(e int32) float32 {
		d := inDeg[g.Dst[e]]
		if d == 0 {
			return 0
		}
		return 1 / float32(d)
	}
}

// walk is the one traversal of every model body: each task's edges in task
// order, edge e added into its destination's row of out by add(row, e) —
// one read-modify-write of the row per edge. Every engine runs it, so the
// output bits never depend on the engine.
func walk(part *core.Partition, out *tensor.Tensor, rs rowSet, dst []int32, add func(row []float32, e int32)) {
	for ti := 0; ti < part.NumTasks(); ti++ {
		for _, e := range part.TaskEdges(ti) {
			add(out.Row(int(rs.at[dst[e]])), e)
		}
	}
}

// taskRuns splits one task's edges into maximal same-destination runs
// (consecutive task edges sharing a dst) — the streaming kernel's
// granularity in the device model (fusedTaskBytes) and SAGE-LSTM's
// recurrence — calls fn, when set, with each run edges[i:j] in task order,
// and returns how many there are.
func taskRuns(dst, edges []int32, fn func(d int32, i, j int)) int {
	runs := 0
	for i := 0; i < len(edges); runs++ {
		d := dst[edges[i]]
		j := i + 1
		for j < len(edges) && dst[edges[j]] == d {
			j++
		}
		if fn != nil {
			fn(d, i, j)
		}
		i = j
	}
	return runs
}

// computeLayer is the one gTask body of every model: the dense transforms,
// then each task's edges walked (see walk) with the model's per-edge
// computation.
func computeLayer(gc *nn.GraphCtx, layer nn.Layer, x *tensor.Tensor, dsts []int32, part *core.Partition, plan Plan) (*tensor.Tensor, error) {
	g := gc.G
	rs, err := newRowSet(g, dsts)
	if err != nil {
		return nil, err
	}
	defer rs.release()
	invDeg := invDegOf(g)
	switch l := layer.(type) {
	case *nn.GCNLayer:
		xw := tensor.MatMulAcc(tensor.Get(x.Dim(0), l.OutDim()), x, l.W.Value)
		defer tensor.Put(xw)
		out := tensor.Get(len(dsts), l.OutDim())
		walk(part, out, rs, g.Dst, func(row []float32, e int32) {
			tensor.AxpyRow(row, invDeg(e), xw.Row(int(g.Src[e])))
		})
		tensor.AddBias(out, l.B.Value)
		return out, nil

	case *nn.SAGELayer:
		out := tensor.MatMulRowsAcc(tensor.Get(len(dsts), l.OutDim()), x, dsts, l.WSelf.Value)
		// The neighbour mean meets in memory before the dense transform:
		// partial products Σ₁·W + Σ₂·W would not be bitwise (Σ₁+Σ₂)·W.
		agg := tensor.Get(len(dsts), l.InDim())
		defer tensor.Put(agg)
		walk(part, agg, rs, g.Dst, func(row []float32, e int32) {
			tensor.AxpyRow(row, invDeg(e), x.Row(int(g.Src[e])))
		})
		tensor.MatMulAcc(out, agg, l.WNeigh.Value)
		tensor.AddBias(out, l.B.Value)
		return out, nil

	case *nn.RGCNLayer:
		return computeRGCN(g, l, x, rs, part, plan, invDeg), nil

	case *nn.GATLayer:
		return computeGAT(g, l, x, rs, part), nil

	case *nn.SAGELSTMLayer:
		// The recurrence streams one source row per step and holds (h, c)
		// in registers under every engine: there is no scatter to walk.
		return computeLSTM(g, l, x, rs, part), nil
	}
	return nil, fmt.Errorf("kernels: unsupported layer type %T", layer)
}

// computeRGCN runs the RGCN aggregation per task, with the dedup'd
// outer-product micro-kernel (paper Figure 10c) when the plan asks for it.
func computeRGCN(g *graphT, l *nn.RGCNLayer, x *tensor.Tensor, rs rowSet, part *core.Partition, plan Plan, invDeg func(int32) float32) *tensor.Tensor {
	in, outDim := l.InDim(), l.OutDim()
	weight := func(tv int32) *tensor.Tensor {
		return tensor.FromSlice(l.W.Value.Data()[int(tv)*in*outDim:(int(tv)+1)*in*outDim], in, outDim)
	}
	out := tensor.MatMulRowsAcc(tensor.Get(len(rs.ids), outDim), x, rs.ids, l.WSelf.Value)
	if !plan.Dedup {
		msg := make([]float32, outDim)
		walk(part, out, rs, g.Dst, func(row []float32, e int32) {
			tensor.VecMat(msg, x.Row(int(g.Src[e])), weight(g.EdgeType(int(e))))
			tensor.AxpyRow(row, invDeg(e), msg)
		})
		tensor.AddBias(out, l.B.Value)
		return out
	}
	for ti := 0; ti < part.NumTasks(); ti++ {
		edges := part.TaskEdges(ti)
		// unique-value extraction on src and type, then the outer-product
		// compute + 2-D indexing.
		srcs := make([]int32, len(edges))
		typs := make([]int32, len(edges))
		for i, e := range edges {
			srcs[i] = g.Src[e]
			typs[i] = g.EdgeType(int(e))
		}
		uSrc, mSrc := dfg.UniqueExtract(srcs)
		uTyp, mTyp := dfg.UniqueExtract(typs)
		// pair products: row i*len(uTyp)+j is x[uSrc[i]] · W[uTyp[j]]
		prod := tensor.Get(len(uSrc)*len(uTyp), outDim)
		for i, sv := range uSrc {
			for j, tv := range uTyp {
				tensor.VecMat(prod.Row(i*len(uTyp)+j), x.Row(int(sv)), weight(tv))
			}
		}
		for k, e := range edges {
			tensor.AxpyRow(out.Row(int(rs.at[g.Dst[e]])), invDeg(e), prod.Row(int(mSrc[k])*len(uTyp)+int(mTyp[k])))
		}
		tensor.Put(prod)
	}
	tensor.AddBias(out, l.B.Value)
	return out
}

// gatScores runs the GAT phases ahead of the aggregation: the dense Z
// transform and left projection over every input row (any of them may be
// an edge source), the right projection over the destination rows,
// per-edge leaky-ReLU scores, and the per-(dst,head) stable softmax. The
// softmax runs over the whole edge set (three passes) so normalization is
// exact regardless of how tasks split a destination's in-edges. It returns
// Z [V,F'], the normalized score numerators [E,heads] and the
// per-destination sums [len(rs.ids),heads]; the caller owns all three
// (tensor.Put).
func gatScores(g *graphT, l *nn.GATLayer, x *tensor.Tensor, rs rowSet) (z, score, sum *tensor.Tensor) {
	heads := l.Heads()
	dh := l.OutDim() / heads
	z = tensor.MatMulAcc(tensor.Get(x.Dim(0), l.OutDim()), x, l.W.Value)
	v, nd := g.NumVertices, len(rs.ids)
	// project writes one attention score per head of z's row vi.
	project := func(dst []float32, a *tensor.Tensor, vi int) {
		zr := z.Row(vi)
		for h := 0; h < heads; h++ {
			ar := a.Row(h)
			var s float32
			for d := 0; d < dh; d++ {
				s += ar[d] * zr[h*dh+d]
			}
			dst[h] = s
		}
	}
	pl := tensor.Get(v, heads)
	pr := tensor.Get(nd, heads)
	defer tensor.Put(pl)
	defer tensor.Put(pr)
	for vi := 0; vi < v; vi++ {
		project(pl.Row(vi), l.AL.Value, vi)
	}
	for i, d := range rs.ids {
		project(pr.Row(i), l.AR.Value, int(d))
	}
	e := g.NumEdges()
	score = tensor.Get(e, heads)
	for ei := 0; ei < e; ei++ {
		sr := score.Row(ei)
		plr := pl.Row(int(g.Src[ei]))
		prr := pr.Row(int(rs.at[g.Dst[ei]]))
		for h := 0; h < heads; h++ {
			s := plr[h] + prr[h]
			if s < 0 {
				s *= 0.2 // leaky relu, slope matches nn.GATLayer
			}
			sr[h] = s
		}
	}
	// per-dst stable softmax over the whole edge set (three passes)
	maxS := tensor.Get(nd, heads)
	defer tensor.Put(maxS)
	for i, d := 0, maxS.Data(); i < len(d); i++ {
		d[i] = float32(math.Inf(-1))
	}
	for ei := 0; ei < e; ei++ {
		mr := maxS.Row(int(rs.at[g.Dst[ei]]))
		sr := score.Row(ei)
		for h := 0; h < heads; h++ {
			if sr[h] > mr[h] {
				mr[h] = sr[h]
			}
		}
	}
	sum = tensor.Get(nd, heads)
	for ei := 0; ei < e; ei++ {
		d := int(rs.at[g.Dst[ei]])
		sr := score.Row(ei)
		mr := maxS.Row(d)
		zr := sum.Row(d)
		for h := 0; h < heads; h++ {
			ev := float32(math.Exp(float64(sr[h] - mr[h])))
			sr[h] = ev
			zr[h] += ev
		}
	}
	return z, score, sum
}

// computeGAT runs the score/softmax phases (normalization is global per
// destination regardless of task splits) and walks only the weighted
// aggregation. The per-head attention coefficients stay materialized in
// [E,heads] — heads ≪ F', so this is not traffic a fused kernel can save.
func computeGAT(g *graphT, l *nn.GATLayer, x *tensor.Tensor, rs rowSet, part *core.Partition) *tensor.Tensor {
	heads := l.Heads()
	dh := l.OutDim() / heads
	z, score, sum := gatScores(g, l, x, rs)
	defer tensor.Put(z)
	defer tensor.Put(score)
	defer tensor.Put(sum)
	out := tensor.Get(len(rs.ids), l.OutDim())
	walk(part, out, rs, g.Dst, func(row []float32, ei int32) {
		sr := score.Row(int(ei))
		zr := z.Row(int(g.Src[ei]))
		su := sum.Row(int(rs.at[g.Dst[ei]]))
		for h := 0; h < heads; h++ {
			if su[h] == 0 {
				continue
			}
			tensor.AxpyRow(row[h*dh:(h+1)*dh], sr[h]/su[h], zr[h*dh:(h+1)*dh])
		}
	})
	tensor.AddBias(out, l.B.Value)
	return out
}

// computeLSTM runs the per-destination recurrences task by task. The
// validity filter guarantees each destination's edges are contiguous in
// one task and in original (CSR-equivalent) order.
func computeLSTM(g *graphT, l *nn.SAGELSTMLayer, x *tensor.Tensor, rs rowSet, part *core.Partition) *tensor.Tensor {
	hd := l.OutDim()
	hFinal := tensor.Get(len(rs.ids), hd)
	defer tensor.Put(hFinal)
	h := make([]float32, hd)
	c := make([]float32, hd)
	zbuf := make([]float32, 4*hd)
	for ti := 0; ti < part.NumTasks(); ti++ {
		edges := part.TaskEdges(ti)
		taskRuns(g.Dst, edges, func(dst int32, i, j int) {
			// run the LSTM over edges[i:j] in ascending edge order
			run := append([]int32(nil), edges[i:j]...)
			slices.Sort(run)
			for k := range h {
				h[k], c[k] = 0, 0
			}
			for _, e := range run {
				xr := x.Row(int(g.Src[e]))
				copy(zbuf, l.Bg.Value.Data())
				tensor.VecMatAcc(zbuf, xr, l.Wx.Value)
				tensor.VecMatAcc(zbuf, h, l.Wh.Value)
				for k := 0; k < hd; k++ {
					ig := sigm(zbuf[k])
					fg := sigm(zbuf[hd+k])
					og := sigm(zbuf[2*hd+k])
					gg := float32(math.Tanh(float64(zbuf[3*hd+k])))
					c[k] = fg*c[k] + ig*gg
					h[k] = og * float32(math.Tanh(float64(c[k])))
				}
			}
			copy(hFinal.Row(int(rs.at[dst])), h)
		})
	}
	out := tensor.MatMulRowsAcc(tensor.Get(len(rs.ids), hd), x, rs.ids, l.WSelf.Value)
	tensor.MatMulAcc(out, hFinal, l.WNeigh.Value)
	tensor.AddBias(out, l.B.Value)
	return out
}

// graphT aliases the graph type to keep signatures short.
type graphT = graph.Graph

func sigm(x float32) float32 { return float32(1 / (1 + math.Exp(-float64(x)))) }
