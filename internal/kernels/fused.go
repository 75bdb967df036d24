package kernels

import (
	"fmt"

	"wisegraph/internal/core"
	"wisegraph/internal/device"
	"wisegraph/internal/dfg"
	"wisegraph/internal/exec"
	"wisegraph/internal/nn"
	"wisegraph/internal/tensor"
)

// fusedEngine streams each destination run of a gTask exactly once:
// a source row is gathered, multiplied, and added into a register-resident
// destination accumulator, with one accumulator load + store per run
// instead of one read-modify-write per edge and no per-edge [E,F']
// intermediate. Tasks are visited in partition order and contributions
// within a run in task-edge order, so the floating-point summation order —
// and therefore every output bit — is identical to the blocked engine for
// every graph plan, operation plan, and worker count.
type fusedEngine struct{}

func (fusedEngine) Name() string { return "fused" }

func (fusedEngine) Probe(kind nn.ModelKind, plan core.GraphPlan) error {
	return probePlan(kind, plan)
}

func (fusedEngine) LayerBytes(sh LayerShape, part *core.Partition, plan Plan) float64 {
	var total float64
	for ti := 0; ti < part.NumTasks(); ti++ {
		runs := taskRuns(part.Graph.Dst, part.TaskEdges(ti))
		total += fusedTaskBytes(sh, StatsOf(part, ti), runs, plan)
	}
	return total
}

func (fusedEngine) RunLayer(ctx *exec.Ctx, gc *nn.GraphCtx, layer nn.Layer, sh LayerShape, x *tensor.Tensor, dsts []int32, part *core.Partition, plan Plan) (*tensor.Tensor, error) {
	for _, k := range DenseKernels(sh, gc.NumVertices(), len(dsts)) {
		ctx.Launch(k, nil)
	}
	// One streaming kernel per layer. Arithmetic work is unchanged from
	// the blocked program (the same multiplies and adds run, in the same
	// order); only the traffic model differs.
	prog := Compose(sh, plan)
	n := part.NumTasks()
	times := make([]float64, n)
	var flops, bytes float64
	for ti := 0; ti < n; ti++ {
		st := StatsOf(part, ti)
		runs := taskRuns(part.Graph.Dst, part.TaskEdges(ti))
		tf, _ := prog.Totals(st)
		tb := fusedTaskBytes(sh, st, runs, plan)
		flops += tf
		bytes += tb
		times[ti] = perUnit(ctx.Dev.Spec, tf, tb, prog.TC(st))
	}
	ctx.Launch(device.Kernel{
		Name: "gtask.stream", Cat: device.CatNeural,
		FLOPs: flops, Bytes: bytes, UnitTimes: times,
	}, nil)
	if !ctx.Compute {
		return nil, nil
	}
	return computeLayerFused(gc, layer, x, dsts, part, plan)
}

// taskRuns counts the maximal same-destination edge runs in one task — the
// fused engine's streaming granularity (one accumulator load/store each).
func taskRuns(dst []int32, edges []int32) int {
	runs := 0
	for i := 0; i < len(edges); {
		d := dst[edges[i]]
		j := i + 1
		for j < len(edges) && dst[edges[j]] == d {
			j++
		}
		runs++
		i = j
	}
	return runs
}

// forEachTaskRun visits every edge task by task, grouped into maximal
// same-destination runs (consecutive task edges sharing a dst). Run order
// and within-run edge order match forEachTaskEdge exactly.
func forEachTaskRun(part *core.Partition, dst []int32, fn func(d int32, run []int32)) {
	for ti := 0; ti < part.NumTasks(); ti++ {
		edges := part.TaskEdges(ti)
		for i := 0; i < len(edges); {
			d := dst[edges[i]]
			j := i + 1
			for j < len(edges) && dst[edges[j]] == d {
				j++
			}
			fn(d, edges[i:j])
			i = j
		}
	}
}

// singleRunPerDst reports whether every destination's edges form exactly
// one run across the whole partition — the condition under which SAGE's
// neighbor mean never needs the [D,F] aggregation buffer at all (each
// accumulator is complete when its run ends, so it can flow straight into
// the dense transform).
func singleRunPerDst(part *core.Partition, dst []int32, rs rowSet) bool {
	seen := make([]bool, len(rs.ids))
	ok := true
	forEachTaskRun(part, dst, func(d int32, _ []int32) {
		if seen[rs.at[d]] {
			ok = false
		}
		seen[rs.at[d]] = true
	})
	return ok
}

// computeLayerFused is the streaming computation over gTasks. Every branch
// is bitwise-equal to computeLayer: a run-local accumulator that loads the
// current output row, adds contributions in task-edge order and stores the
// row back performs the identical additions in the identical order as the
// blocked per-edge read-modify-write.
func computeLayerFused(gc *nn.GraphCtx, layer nn.Layer, x *tensor.Tensor, dsts []int32, part *core.Partition, plan Plan) (*tensor.Tensor, error) {
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
		acc := make([]float32, l.OutDim())
		forEachTaskRun(part, g.Dst, func(d int32, run []int32) {
			or := out.Row(int(rs.at[d]))
			copy(acc, or)
			for _, e := range run {
				tensor.AxpyRow(acc, invDeg(e), xw.Row(int(g.Src[e])))
			}
			copy(or, acc)
		})
		tensor.AddBias(out, l.B.Value)
		return out, nil

	case *nn.SAGELayer:
		out := tensor.MatMulRowsAcc(tensor.Get(len(dsts), l.OutDim()), x, dsts, l.WSelf.Value)
		acc := make([]float32, l.InDim())
		if singleRunPerDst(part, g.Dst, rs) {
			// Zero-materialization fast path: the neighbor mean lives
			// only in the accumulator and feeds the dense transform the
			// moment its run completes.
			forEachTaskRun(part, g.Dst, func(d int32, run []int32) {
				for j := range acc {
					acc[j] = 0
				}
				for _, e := range run {
					tensor.AxpyRow(acc, invDeg(e), x.Row(int(g.Src[e])))
				}
				tensor.VecMatAcc(out.Row(int(rs.at[d])), acc, l.WNeigh.Value)
			})
		} else {
			// A destination's edges fragment across runs: partial means
			// must meet in memory before the dense transform (the partial
			// products Σ₁·W + Σ₂·W would not be bitwise (Σ₁+Σ₂)·W), so
			// keep the [D,F] buffer but stream each run through the
			// accumulator.
			agg := tensor.Get(len(dsts), l.InDim())
			defer tensor.Put(agg)
			forEachTaskRun(part, g.Dst, func(d int32, run []int32) {
				ar := agg.Row(int(rs.at[d]))
				copy(acc, ar)
				for _, e := range run {
					tensor.AxpyRow(acc, invDeg(e), x.Row(int(g.Src[e])))
				}
				copy(ar, acc)
			})
			tensor.MatMulAcc(out, agg, l.WNeigh.Value)
		}
		tensor.AddBias(out, l.B.Value)
		return out, nil

	case *nn.RGCNLayer:
		return computeRGCNFused(g, l, x, rs, part, plan, invDeg)

	case *nn.GATLayer:
		return computeGATFused(gc, l, x, rs, part)

	case *nn.SAGELSTMLayer:
		// The recurrence already streams one source row per step and
		// holds (h, c) in registers; there is nothing left to fuse.
		return computeLSTM(g, l, x, rs, part)
	}
	return nil, fmt.Errorf("kernels: unsupported layer type %T", layer)
}

// computeRGCNFused keeps the dedup'd outer-product micro-kernel (the
// duplicated-data DFG transformation must survive fusion) but streams the
// scatter through run accumulators instead of per-edge read-modify-writes.
func computeRGCNFused(g *graphT, l *nn.RGCNLayer, x *tensor.Tensor, rs rowSet, part *core.Partition, plan Plan, invDeg func(int32) float32) (*tensor.Tensor, error) {
	in, outDim := l.InDim(), l.OutDim()
	out := tensor.MatMulRowsAcc(tensor.Get(len(rs.ids), outDim), x, rs.ids, l.WSelf.Value)
	acc := make([]float32, outDim)
	msg := make([]float32, outDim)
	for ti := 0; ti < part.NumTasks(); ti++ {
		edges := part.TaskEdges(ti)
		if plan.Dedup {
			srcs := make([]int32, len(edges))
			typs := make([]int32, len(edges))
			for i, e := range edges {
				srcs[i] = g.Src[e]
				typs[i] = g.EdgeType(int(e))
			}
			uSrc, mSrc := dfg.UniqueExtract(srcs)
			uTyp, mTyp := dfg.UniqueExtract(typs)
			prod := tensor.Get(len(uSrc), len(uTyp), outDim)
			for i, sv := range uSrc {
				xr := x.Row(int(sv))
				for j, tv := range uTyp {
					w := tensor.FromSlice(l.W.Value.Data()[int(tv)*in*outDim:(int(tv)+1)*in*outDim], in, outDim)
					tensor.VecMat(prod.Data()[(i*len(uTyp)+j)*outDim:(i*len(uTyp)+j+1)*outDim], xr, w)
				}
			}
			for i := 0; i < len(edges); {
				d := g.Dst[edges[i]]
				j := i + 1
				for j < len(edges) && g.Dst[edges[j]] == d {
					j++
				}
				or := out.Row(int(rs.at[d]))
				copy(acc, or)
				for k := i; k < j; k++ {
					pr := prod.Data()[(int(mSrc[k])*len(uTyp)+int(mTyp[k]))*outDim : (int(mSrc[k])*len(uTyp)+int(mTyp[k])+1)*outDim]
					tensor.AxpyRow(acc, invDeg(edges[k]), pr)
				}
				copy(or, acc)
				i = j
			}
			tensor.Put(prod)
		} else {
			for i := 0; i < len(edges); {
				d := g.Dst[edges[i]]
				j := i + 1
				for j < len(edges) && g.Dst[edges[j]] == d {
					j++
				}
				or := out.Row(int(rs.at[d]))
				copy(acc, or)
				for k := i; k < j; k++ {
					e := edges[k]
					tv := g.EdgeType(int(e))
					w := tensor.FromSlice(l.W.Value.Data()[int(tv)*in*outDim:(int(tv)+1)*in*outDim], in, outDim)
					tensor.VecMat(msg, x.Row(int(g.Src[e])), w)
					tensor.AxpyRow(acc, invDeg(e), msg)
				}
				copy(or, acc)
				i = j
			}
		}
	}
	tensor.AddBias(out, l.B.Value)
	return out, nil
}

// computeGATFused shares the exact score/softmax phases with the blocked
// path (normalization must be global per destination regardless of task
// splits) and streams only the weighted aggregation through run
// accumulators. The per-head attention coefficients stay materialized in
// [E,heads] — heads ≪ F', so this is not the traffic the fusion targets.
func computeGATFused(gc *nn.GraphCtx, l *nn.GATLayer, x *tensor.Tensor, rs rowSet, part *core.Partition) (*tensor.Tensor, error) {
	g := gc.G
	heads := l.Heads()
	dh := l.OutDim() / heads
	z, score, sum := gatScores(gc, l, x, rs, part)
	defer tensor.Put(z)
	defer tensor.Put(score)
	defer tensor.Put(sum)
	out := tensor.Get(len(rs.ids), l.OutDim())
	acc := make([]float32, l.OutDim())
	forEachTaskRun(part, g.Dst, func(d int32, run []int32) {
		or := out.Row(int(rs.at[d]))
		copy(acc, or)
		su := sum.Row(int(rs.at[d]))
		for _, ei := range run {
			sr := score.Row(int(ei))
			zr := z.Row(int(g.Src[ei]))
			for h := 0; h < heads; h++ {
				if su[h] == 0 {
					continue
				}
				tensor.AxpyRow(acc[h*dh:(h+1)*dh], sr[h]/su[h], zr[h*dh:(h+1)*dh])
			}
		}
		copy(or, acc)
	})
	tensor.AddBias(out, l.B.Value)
	return out, nil
}

// fusedTaskBytes models the streaming kernel's global-memory traffic for
// one task: source rows cross once per edge, the index arrays once, each
// destination run costs one accumulator load + store (instead of a
// read-modify-write per edge), and weights stay resident across the task —
// no per-edge [e,F'] store/reload and no per-edge weight refetch.
func fusedTaskBytes(sh LayerShape, st TaskStatsOf, runs int, plan Plan) float64 {
	f, fp := float64(sh.F), float64(sh.Fp)
	e := float64(st.Edges)
	r := float64(runs)
	switch sh.Kind {
	case nn.GCN, nn.SAGE:
		w := fp
		if sh.Kind == nn.SAGE {
			w = f
		}
		return (e*w + e + 2*r*w) * fb
	case nn.RGCN:
		if plan.Dedup {
			// pair products written once, re-read per edge through the
			// dedup maps; run accumulators replace per-edge rmw
			pairs := float64(st.UniqSrc) * float64(st.UniqType)
			return (float64(st.UniqSrc)*f + float64(st.UniqType)*f*fp +
				pairs*fp + e*fp + 2*e + 2*r*fp) * fb
		}
		return (e*f + float64(st.UniqType)*f*fp + e + 2*r*fp) * fb
	case nn.GAT:
		return (e*fp + 4*e + 2*r*fp) * fb
	case nn.SAGELSTM:
		// Identical execution to blocked (see computeLayerFused), so
		// identical traffic.
		_, b := Compose(sh, plan).Totals(st)
		return b
	}
	return 0
}
