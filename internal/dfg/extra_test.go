package dfg

import (
	"math"
	"strings"
	"testing"

	"wisegraph/internal/tensor"
)

func TestGraphStringRendering(t *testing.T) {
	g := rgcnLayer(4, 2, 3, 2)
	s := g.String()
	for _, want := range []string{"input", " H", "index", "bmm", "index-add", "(output)"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() missing %q:\n%s", want, s)
		}
	}
	for k := OpInput; k <= OpSigmoid; k++ {
		if k.String() == "" {
			t.Fatalf("op kind %d unnamed", k)
		}
	}
}

func TestConsumers(t *testing.T) {
	g := &Graph{}
	a := g.Input("A", 4, 2)
	r1 := g.Activation(OpReLU, a, 0)
	r2 := g.Activation(OpTanh, a, 0)
	sum := g.EWAdd(r1, r2)
	g.SetOutput(sum)
	c := g.Consumers()
	if len(c[a]) != 2 {
		t.Fatalf("A has %d consumers, want 2", len(c[a]))
	}
	if len(c[r1]) != 1 || c[r1][0] != sum {
		t.Fatal("ReLU consumer wrong")
	}
}

func TestEWMulAndActivationsEval(t *testing.T) {
	g := &Graph{}
	a := g.Input("A", 1, 4)
	b := g.Input("B", 1, 4)
	// No builder makes an OpEWMul (transforms and cost still handle one).
	prod := g.add(&Node{Kind: OpEWMul, Inputs: []*Node{a, b}, Rows: a.Rows, Cols: a.Cols})
	sig := g.Activation(OpSigmoid, prod, 0)
	th := g.Activation(OpTanh, sig, 0)
	lr := g.Activation(OpLeakyReLU, th, 0.1)
	g.SetOutput(lr)
	env := &Env{Tensors: map[string]*tensor.Tensor{
		"A": tensor.FromSlice([]float32{1, -2, 0, 3}, 1, 4),
		"B": tensor.FromSlice([]float32{2, 1, 5, -1}, 1, 4),
	}}
	out, err := g.Eval(env)
	if err != nil {
		t.Fatal(err)
	}
	// manual: p = {2,-2,0,-3}; s = σ(p); t = tanh(s); leaky(t)
	for i, p := range []float64{2, -2, 0, -3} {
		s := 1 / (1 + math.Exp(-p))
		th := math.Tanh(s)
		want := th
		if want < 0 {
			want *= 0.1
		}
		if math.Abs(float64(out.Data()[i])-want) > 1e-5 {
			t.Fatalf("chain eval[%d] = %v, want %v", i, out.Data()[i], want)
		}
	}
}

func TestBuilderPanics(t *testing.T) {
	g := &Graph{}
	a := g.Input("A", 4, 2)
	w3 := g.Input("W3", 2, 3, 4)
	mustPanic(t, "Linear with 3-D weight", func() { g.Linear(a, w3) })
	w1 := g.Input("W1", 4)
	mustPanic(t, "BMM with 1-D weight", func() { g.BMM(a, w1) })
	mustPanic(t, "OuterMM with 1-D weight", func() { g.OuterMM(a, w1, Card{Kind: CardFixed, N: 1}) })
	mustPanic(t, "Activation with non-activation kind", func() { g.Activation(OpMatMulKindPlaceholder(), a, 0) })
	scalar := g.Input("S", 3)
	mustPanic(t, "Index2D on flat data", func() { g.Index2D(scalar, "r", "c", Card{Kind: CardEdges}) })
}

// OpMatMulKindPlaceholder returns a non-activation kind for panic tests.
func OpMatMulKindPlaceholder() OpKind { return OpLinear }

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s must panic", what)
		}
	}()
	fn()
}
