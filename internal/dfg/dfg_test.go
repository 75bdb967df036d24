package dfg

import (
	"math"
	"testing"

	"wisegraph/internal/core"
	"wisegraph/internal/tensor"
)

// rgcnLayer builds the paper's running-example DFG (Figure 2c):
// h_out[dst] += BMM(H[src], W[type]).
func rgcnLayer(numV, numTypes, f, fp int) *Graph {
	g := &Graph{}
	h := g.Input("H", numV, f)
	w := g.Input("W", numTypes, f, fp)
	hs := g.Index(h, "src-id", Card{Kind: CardEdges})
	wt := g.Index(w, "edge-type", Card{Kind: CardEdges})
	msg := g.BMM(hs, wt)
	out := g.IndexAdd(msg, "dst-id", "num-dst", Card{Kind: CardUniq, Attr: core.AttrDstID})
	g.SetOutput(out)
	return g
}

func rgcnEnv(numV, numTypes, f, fp int, src, typ, dst []int32, seed uint64) *Env {
	rng := tensor.NewRNG(seed)
	h := tensor.New(numV, f)
	tensor.Uniform(h, rng, -1, 1)
	w := tensor.New(numTypes, f, fp)
	tensor.Uniform(w, rng, -1, 1)
	return &Env{
		Tensors: map[string]*tensor.Tensor{"H": h, "W": w},
		Indices: map[string][]int32{"src-id": src, "edge-type": typ, "dst-id": dst},
		Sizes:   map[string]int{"num-dst": numV},
	}
}

func TestRGCNEvalMatchesManual(t *testing.T) {
	numV, numTypes, f, fp := 4, 2, 3, 2
	src := []int32{0, 1, 2, 0}
	typ := []int32{0, 1, 0, 0}
	dst := []int32{1, 1, 3, 3}
	g := rgcnLayer(numV, numTypes, f, fp)
	env := rgcnEnv(numV, numTypes, f, fp, src, typ, dst, 1)
	got, err := g.Eval(env)
	if err != nil {
		t.Fatal(err)
	}
	h := env.Tensors["H"]
	w := env.Tensors["W"]
	want := tensor.New(numV, fp)
	for e := range src {
		hv := h.Row(int(src[e]))
		we := tensor.FromSlice(w.Data()[int(typ[e])*f*fp:(int(typ[e])+1)*f*fp], f, fp)
		msg := make([]float32, fp)
		tensor.VecMat(msg, hv, we)
		row := want.Row(int(dst[e]))
		for j, v := range msg {
			row[j] += v
		}
	}
	for i := range got.Data() {
		if math.Abs(float64(got.Data()[i]-want.Data()[i])) > 1e-4 {
			t.Fatalf("eval mismatch at %d: %v vs %v", i, got.Data()[i], want.Data()[i])
		}
	}
}

func TestEvalErrorsOnUnboundSymbols(t *testing.T) {
	g := rgcnLayer(4, 2, 3, 2)
	env := &Env{Tensors: map[string]*tensor.Tensor{}, Indices: map[string][]int32{}, Sizes: map[string]int{}}
	if _, err := g.Eval(env); err == nil {
		t.Fatal("expected unbound-symbol error")
	}
}

func TestCloneIsDeep(t *testing.T) {
	g := rgcnLayer(4, 2, 3, 2)
	c := g.Clone()
	if len(c.Nodes) != len(g.Nodes) {
		t.Fatalf("clone node count %d vs %d", len(c.Nodes), len(g.Nodes))
	}
	c.Nodes[2].IdxKey = "mutated"
	if g.Nodes[2].IdxKey == "mutated" {
		t.Fatal("clone shares nodes")
	}
	// clone inputs must point at clone nodes
	for _, n := range c.Nodes {
		for _, in := range n.Inputs {
			found := false
			for _, m := range c.Nodes {
				if m == in {
					found = true
				}
			}
			if !found {
				t.Fatal("clone input points outside clone")
			}
		}
	}
}

func TestPruneRemovesDeadNodes(t *testing.T) {
	g := &Graph{}
	a := g.Input("A", 4, 2)
	dead := g.Input("DEAD", 4, 2)
	_ = g.EWAdd(dead, dead) // dead compute
	out := g.Activation(OpReLU, a, 0)
	g.SetOutput(out)
	g.Prune()
	if len(g.Nodes) != 2 {
		t.Fatalf("pruned graph has %d nodes, want 2", len(g.Nodes))
	}
}

func TestUniqueExtractRuntime(t *testing.T) {
	idx := []int32{5, 3, 5, 5, 3, 9}
	unique, mapping := UniqueExtract(idx)
	wantU := []int32{5, 3, 9}
	if len(unique) != 3 {
		t.Fatalf("unique = %v", unique)
	}
	for i := range wantU {
		if unique[i] != wantU[i] {
			t.Fatalf("unique = %v, want %v", unique, wantU)
		}
	}
	for i, v := range idx {
		if unique[mapping[i]] != v {
			t.Fatalf("mapping broken at %d", i)
		}
	}
}

func TestOpKindProperties(t *testing.T) {
	if !OpIndex.IsIndexing() || !OpIndexAdd.IsIndexing() || OpLinear.IsIndexing() {
		t.Fatal("IsIndexing wrong")
	}
	if !OpLinear.Rowwise() || !OpBMM.Rowwise() || OpIndexAdd.Rowwise() || OpIndex.Rowwise() {
		t.Fatal("Rowwise wrong")
	}
}

func TestOuterMMEval(t *testing.T) {
	g := &Graph{}
	x := g.Input("X", 2, 3)
	w := g.Input("W", 2, 3, 2)
	o := g.OuterMM(x, w, Card{Kind: CardFixed, N: 4})
	g.SetOutput(o)
	rng := tensor.NewRNG(3)
	xt := tensor.New(2, 3)
	tensor.Uniform(xt, rng, -1, 1)
	wt := tensor.New(2, 3, 2)
	tensor.Uniform(wt, rng, -1, 1)
	out, err := g.Eval(&Env{Tensors: map[string]*tensor.Tensor{"X": xt, "W": wt}})
	if err != nil {
		t.Fatal(err)
	}
	if out.Dims() != 3 || out.Dim(0) != 2 || out.Dim(1) != 2 || out.Dim(2) != 2 {
		t.Fatalf("outer shape %v", out.Shape())
	}
	// out[i,j] = x[i] × w[j]
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			wj := tensor.FromSlice(wt.Data()[j*6:(j+1)*6], 3, 2)
			want := make([]float32, 2)
			tensor.VecMat(want, xt.Row(i), wj)
			for p := 0; p < 2; p++ {
				if math.Abs(float64(out.At(i, j, p)-want[p])) > 1e-5 {
					t.Fatalf("outer[%d,%d,%d] mismatch", i, j, p)
				}
			}
		}
	}
}
