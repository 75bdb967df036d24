package opt

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"wisegraph/internal/core"
	"wisegraph/internal/dfg"
	"wisegraph/internal/nn"
	"wisegraph/internal/tensor"
)

// rgcnLayer builds the Figure 2(c) DFG.
func rgcnLayer(numV, numTypes, f, fp int) *dfg.Graph {
	g := &dfg.Graph{}
	h := g.Input("H", numV, f)
	w := g.Input("W", numTypes, f, fp)
	hs := g.Index(h, "src-id", dfg.Card{Kind: dfg.CardEdges})
	wt := g.Index(w, "edge-type", dfg.Card{Kind: dfg.CardEdges})
	msg := g.BMM(hs, wt)
	out := g.IndexAdd(msg, "dst-id", "num-dst", dfg.Card{Kind: dfg.CardUniq, Attr: core.AttrDstID})
	g.SetOutput(out)
	return g
}

// gcnLikeLayer: out[dst] += Linear(H[src], W) — the single-index pattern.
func gcnLikeLayer(numV, f, fp int) *dfg.Graph {
	g := &dfg.Graph{}
	h := g.Input("H", numV, f)
	w := g.Input("W", f, fp)
	hs := g.Index(h, "src-id", dfg.Card{Kind: dfg.CardEdges})
	lin := g.Linear(hs, w)
	out := g.IndexAdd(lin, "dst-id", "num-dst", dfg.Card{Kind: dfg.CardUniq, Attr: core.AttrDstID})
	g.SetOutput(out)
	return g
}

var rgcnInfo = Info{
	AttrOf: map[string]core.Attr{"src-id": core.AttrSrcID, "edge-type": core.AttrEdgeType, "dst-id": core.AttrDstID},
	Dup:    map[string]bool{"src-id": true, "edge-type": true},
}

// bindEnv builds an Env for any candidate DFG: raw attribute arrays plus
// the derived .unique/.map arrays the transformations introduce.
func bindEnv(numV, numTypes, f, fp int, src, typ, dst []int32, seed uint64) *dfg.Env {
	rng := tensor.NewRNG(seed)
	h := tensor.New(numV, f)
	tensor.Uniform(h, rng, -1, 1)
	w := tensor.New(numTypes, f, fp)
	tensor.Uniform(w, rng, -1, 1)
	env := &dfg.Env{
		Tensors: map[string]*tensor.Tensor{"H": h, "W": w},
		Indices: map[string][]int32{"src-id": src, "edge-type": typ, "dst-id": dst},
		Sizes:   map[string]int{"num-dst": numV},
	}
	for key, arr := range map[string][]int32{"src-id": src, "edge-type": typ} {
		u, m := dfg.UniqueExtract(arr)
		env.Indices[key+".unique"] = u
		env.Indices[key+".map"] = m
	}
	return env
}

func TestTransformChainShapeRGCN(t *testing.T) {
	g := rgcnLayer(6, 3, 4, 2)
	cands := Transform(g, rgcnInfo)
	// original + unique-extraction + at least one swap step
	if len(cands) < 3 {
		t.Fatalf("only %d candidates", len(cands))
	}
	// The final candidate must contain an OuterMM feeding an Index2D
	// (paper Figure 9e) and no BMM.
	last := cands[len(cands)-1]
	var hasOuter, hasIdx2D, hasBMM bool
	for _, n := range last.Nodes {
		switch n.Kind {
		case dfg.OpOuterMM:
			hasOuter = true
		case dfg.OpIndex2D:
			hasIdx2D = true
		case dfg.OpBMM:
			hasBMM = true
		}
	}
	if !hasOuter || !hasIdx2D || hasBMM {
		t.Fatalf("final DFG wrong shape (outer=%v idx2d=%v bmm=%v):\n%s", hasOuter, hasIdx2D, hasBMM, last)
	}
}

func TestTransformCandidatesAllEquivalentRGCN(t *testing.T) {
	numV, numTypes, f, fp := 6, 3, 4, 2
	src := []int32{0, 0, 1, 2, 2, 2, 5}
	typ := []int32{0, 0, 0, 1, 1, 2, 0}
	dst := []int32{1, 2, 3, 3, 4, 4, 0}
	g := rgcnLayer(numV, numTypes, f, fp)
	env := bindEnv(numV, numTypes, f, fp, src, typ, dst, 42)
	want, err := g.Eval(env)
	if err != nil {
		t.Fatal(err)
	}
	cands := Transform(g, rgcnInfo)
	for ci, c := range cands {
		got, err := c.Eval(env)
		if err != nil {
			t.Fatalf("candidate %d: %v\n%s", ci, err, c)
		}
		if !got.SameShape(want) {
			t.Fatalf("candidate %d shape %v vs %v", ci, got.Shape(), want.Shape())
		}
		for i := range got.Data() {
			if math.Abs(float64(got.Data()[i]-want.Data()[i])) > 1e-4 {
				t.Fatalf("candidate %d differs at %d: %v vs %v\n%s", ci, i, got.Data()[i], want.Data()[i], c)
			}
		}
	}
}

func TestTransformReducesNeuralWorkloadWithDuplication(t *testing.T) {
	g := rgcnLayer(100, 4, 32, 16)
	// heavy duplication: 1000 edges but only 10 unique srcs, 1 type
	stats := dfg.TaskStats{Edges: 1000, Uniq: map[core.Attr]int{
		core.AttrSrcID: 10, core.AttrEdgeType: 1, core.AttrDstID: 50,
	}}
	cands := Transform(g, rgcnInfo)
	origW := g.Cost(stats)
	_, bestW := SelectBest(cands, stats)
	if bestW.NeuralFLOPs >= origW.NeuralFLOPs {
		t.Fatalf("transformation did not reduce neural work: %v vs %v", bestW.NeuralFLOPs, origW.NeuralFLOPs)
	}
	// Paper Figure 17: RGCN on AR reduces neural computation by ~92.7%.
	// With 10×1 unique pairs vs 1000 edges the reduction is 99%.
	reduction := 1 - bestW.NeuralFLOPs/origW.NeuralFLOPs
	if reduction < 0.9 {
		t.Fatalf("neural reduction = %.3f, want ≥ 0.9", reduction)
	}
}

func TestTransformKeepsOriginalWithoutDuplication(t *testing.T) {
	g := rgcnLayer(100, 4, 32, 16)
	// no duplication: every edge has a distinct src and type pair
	stats := dfg.TaskStats{Edges: 10, Uniq: map[core.Attr]int{
		core.AttrSrcID: 10, core.AttrEdgeType: 4, core.AttrDstID: 10,
	}}
	noDup := Info{AttrOf: rgcnInfo.AttrOf, Dup: map[string]bool{}}
	cands := Transform(g, noDup)
	if len(cands) != 1 {
		t.Fatalf("without duplication only the original should remain, got %d", len(cands))
	}
	best, _ := SelectBest(cands, stats)
	if best != g {
		t.Fatal("best must be the original DFG")
	}
}

func TestSelectBestPrefersOuterOnlyWhenPairsSmall(t *testing.T) {
	g := rgcnLayer(1000, 128, 32, 16)
	cands := Transform(g, rgcnInfo)
	// Case A: few unique pairs → outer wins.
	statsDup := dfg.TaskStats{Edges: 2000, Uniq: map[core.Attr]int{
		core.AttrSrcID: 20, core.AttrEdgeType: 1, core.AttrDstID: 100,
	}}
	bestA, _ := SelectBest(cands, statsDup)
	var hasOuterA bool
	for _, n := range bestA.Nodes {
		if n.Kind == dfg.OpOuterMM {
			hasOuterA = true
		}
	}
	if !hasOuterA {
		t.Fatal("duplication-heavy task should select the outer-product DFG")
	}
	// Case B: unique (src,type) pairs ≫ edges → the all-pairs outer
	// product wastes work on combinations no edge uses; the per-edge
	// original wins.
	statsUnique := dfg.TaskStats{Edges: 50, Uniq: map[core.Attr]int{
		core.AttrSrcID: 50, core.AttrEdgeType: 100, core.AttrDstID: 50,
	}}
	bestB, _ := SelectBest(cands, statsUnique)
	for _, n := range bestB.Nodes {
		if n.Kind == dfg.OpOuterMM {
			t.Fatal("unique-heavy task must not select the outer-product DFG")
		}
	}
}

func TestGCNSingleIndexSwap(t *testing.T) {
	numV, f, fp := 8, 5, 3
	g := gcnLikeLayer(numV, f, fp)
	info := Info{
		AttrOf: map[string]core.Attr{"src-id": core.AttrSrcID, "dst-id": core.AttrDstID},
		Dup:    map[string]bool{"src-id": true},
	}
	cands := Transform(g, info)
	if len(cands) < 3 {
		t.Fatalf("want ≥3 candidates, got %d", len(cands))
	}
	// Final DFG: Linear must now read H directly (rows = fixed V), i.e.
	// compute per unique vertex, not per edge.
	last := cands[len(cands)-1]
	for _, n := range last.Nodes {
		if n.Kind == dfg.OpLinear && n.Rows.Kind == dfg.CardEdges {
			t.Fatalf("Linear still per-edge after swap:\n%s", last)
		}
	}
	// Equivalence on data.
	src := []int32{1, 1, 1, 2, 7, 7}
	dst := []int32{0, 3, 3, 3, 5, 6}
	rng := tensor.NewRNG(9)
	h := tensor.New(numV, f)
	tensor.Uniform(h, rng, -1, 1)
	w := tensor.New(f, fp)
	tensor.Uniform(w, rng, -1, 1)
	env := &dfg.Env{
		Tensors: map[string]*tensor.Tensor{"H": h, "W": w},
		Indices: map[string][]int32{"src-id": src, "dst-id": dst},
		Sizes:   map[string]int{"num-dst": numV},
	}
	u, m := dfg.UniqueExtract(src)
	env.Indices["src-id.unique"] = u
	env.Indices["src-id.map"] = m
	want, err := g.Eval(env)
	if err != nil {
		t.Fatal(err)
	}
	for ci, c := range cands {
		got, err := c.Eval(env)
		if err != nil {
			t.Fatalf("candidate %d: %v", ci, err)
		}
		for i := range got.Data() {
			if math.Abs(float64(got.Data()[i]-want.Data()[i])) > 1e-4 {
				t.Fatalf("candidate %d differs at %d", ci, i)
			}
		}
	}
}

// Property: transformation candidates are always numerically equivalent to
// the original DFG on random graphs and inputs — the test-local RGCN copy
// and the layer DFGs the search transforms (GCN, SAGE with its
// linear–aggregation commutation, RGCN), every key marked duplicated.
func TestPropTransformEquivalence(t *testing.T) {
	allDup := Info{AttrOf: nn.AttrOfKeys(), Dup: map[string]bool{"src-id": true, "edge-type": true, "dst-id": true}}
	f := func(seed uint64, eSmall, vSmall, tSmall uint8) bool {
		numV := int(vSmall%10) + 2
		numT := int(tSmall%3) + 1
		e := int(eSmall%30) + 1
		rng := tensor.NewRNG(seed)
		src := make([]int32, e)
		typ := make([]int32, e)
		dst := make([]int32, e)
		for i := 0; i < e; i++ {
			src[i] = int32(rng.Intn(numV))
			typ[i] = int32(rng.Intn(numT))
			dst[i] = int32(rng.Intn(numV))
		}
		layers := []struct {
			g    *dfg.Graph
			info Info
		}{
			{rgcnLayer(numV, numT, 3, 2), rgcnInfo},
			{nn.LayerDFG(nn.GCN, numV, numT, 3, 2), allDup},
			{nn.LayerDFG(nn.SAGE, numV, numT, 3, 2), allDup},
			{nn.LayerDFG(nn.RGCN, numV, numT, 3, 2), allDup},
		}
		for _, l := range layers {
			env := bindEnv(numV, numT, 3, 2, src, typ, dst, seed^0xabc)
			for _, n := range l.g.Nodes {
				if n.Kind == dfg.OpInput {
					v := tensor.New(append([]int{n.Rows.N}, n.Cols...)...)
					tensor.Uniform(v, rng, -1, 1)
					env.Tensors[n.Name] = v
				}
			}
			want, err := l.g.Eval(env)
			if err != nil {
				return false
			}
			for _, c := range Transform(l.g, l.info) {
				got, err := c.Eval(env)
				if err != nil {
					return false
				}
				for i := range got.Data() {
					if math.Abs(float64(got.Data()[i]-want.Data()[i])) > 1e-3 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestTransformMovesNoIndexAcrossAttentionOrCell holds GAT's segment
// softmax and weighting and SAGE-LSTM's cell in place: in every candidate
// each reads inputs of the same kinds and rows as in the layer's DFG, so
// no index moves across them.
func TestTransformMovesNoIndexAcrossAttentionOrCell(t *testing.T) {
	info := Info{AttrOf: nn.AttrOfKeys(), Dup: map[string]bool{"src-id": true, "edge-type": true, "dst-id": true}}
	barriers := func(g *dfg.Graph) string {
		var b strings.Builder
		for _, n := range g.Nodes {
			switch n.Kind {
			case dfg.OpSegmentSoftmax, dfg.OpScale, dfg.OpLSTM:
				fmt.Fprintf(&b, "%v %v:", n.Kind, n.Rows)
				for _, in := range n.Inputs {
					fmt.Fprintf(&b, " %v %v", in.Kind, in.Rows)
				}
				b.WriteString("\n")
			}
		}
		return b.String()
	}
	for _, kind := range []nn.ModelKind{nn.GAT, nn.SAGELSTM} {
		g := nn.LayerDFG(kind, 10, 1, 8, 4)
		want := barriers(g)
		if want == "" {
			t.Fatalf("%v: no softmax, weighting or cell node", kind)
		}
		cands := Transform(g, info)
		if len(cands) < 2 {
			t.Fatalf("%v: nothing to transform", kind)
		}
		for ci, c := range cands {
			if got := barriers(c); got != want {
				t.Fatalf("%v candidate %d moved an index:\n%s\nwant\n%s\n%s", kind, ci, got, want, c)
			}
		}
	}
}
