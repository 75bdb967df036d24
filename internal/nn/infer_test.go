package nn

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"wisegraph/internal/graph"
	"wisegraph/internal/tensor"
)

// inferModel builds a two-layer model of kind over 23 input features on
// a graph with 3 edge types.
func inferModel(t *testing.T, kind ModelKind) *Model {
	t.Helper()
	m, err := NewModel(Config{Kind: kind, InDim: 23, Hidden: 16, OutDim: 5, Layers: 2, Heads: 2, NumTypes: 3, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func requireBitwise(t *testing.T, what string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d elements, want %d", what, len(got), len(want))
	}
	for i, v := range got {
		if math.Float32bits(v) != math.Float32bits(want[i]) {
			t.Fatalf("%s: [%d] = %v, want %v", what, i, v, want[i])
		}
	}
}

// TestInferConcurrentBitwise runs every layer of every model through
// Infer from eight goroutines at once on one shared model and context:
// each call returns the bits of the serial call, which are Forward's.
func TestInferConcurrentBitwise(t *testing.T) {
	gc, _ := powerLawGraphCtx(300, 4000, 3, 21)
	for kind := ModelKind(0); kind < NumModels; kind++ {
		m := inferModel(t, kind)
		for li, l := range m.Layers() {
			x := testInput(gc.NumVertices(), l.InDim(), uint64(40+li))
			want := append([]float32(nil), l.Forward(gc, x).Data()...)
			serial := l.Infer(gc, x)
			requireBitwise(t, fmt.Sprintf("%v layer %d Infer vs Forward", kind, li), serial.Data(), want)
			tensor.Put(serial)
			outs := make([]*tensor.Tensor, 8)
			var wg sync.WaitGroup
			for i := range outs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					outs[i] = l.Infer(gc, x)
				}()
			}
			wg.Wait()
			for i, out := range outs {
				requireBitwise(t, fmt.Sprintf("%v layer %d caller %d", kind, li, i), out.Data(), want)
				tensor.Put(out)
			}
		}
	}
}

// TestInferTouchesNoBackwardState holds Forward → Infer → Backward to
// Forward → Backward: an Infer on other inputs and another edge order in
// between leaves every parameter and input gradient bit where it was.
func TestInferTouchesNoBackwardState(t *testing.T) {
	gc, _ := powerLawGraphCtx(300, 4000, 3, 23)
	order := make([]int32, gc.NumEdges())
	for i := range order {
		order[i] = int32(len(order) - 1 - i)
	}
	rev, err := NewGraphCtxOrder(gc.G, order, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rev.Release()
	for kind := ModelKind(0); kind < NumModels; kind++ {
		l := inferModel(t, kind).Layers()[1]
		x := testInput(gc.NumVertices(), l.InDim(), 50)
		other := testInput(gc.NumVertices(), l.InDim(), 51)
		dOut := testInput(gc.NumVertices(), l.OutDim(), 52)
		grads := func(infer bool) [][]float32 {
			for _, p := range l.Params() {
				p.ZeroGrad()
			}
			l.Forward(gc, x)
			if infer {
				tensor.Put(l.Infer(rev, other))
			}
			gs := [][]float32{append([]float32(nil), l.Backward(gc, dOut.Clone(), true).Data()...)}
			for _, p := range l.Params() {
				gs = append(gs, append([]float32(nil), p.Grad.Data()...))
			}
			return gs
		}
		want, got := grads(false), grads(true)
		for i := range want {
			requireBitwise(t, fmt.Sprintf("%v gradient %d", kind, i), got[i], want[i])
		}
	}
}

// TestInferRowsBitwiseEqualAllRows runs every model's first layer over a
// block whose edges all end in a target subset, in a scrambled edge
// order: Infer over the targets alone gives those rows of the all-rows
// Infer bit for bit, and a row set some edge ends outside of is refused.
func TestInferRowsBitwiseEqualAllRows(t *testing.T) {
	rng := tensor.NewRNG(61)
	g := &graph.Graph{NumVertices: 90, NumTypes: 3}
	var targets []int32
	for v := int32(0); v < 90; v += 3 {
		targets = append(targets, v)
		for k := 1 + rng.Intn(8); k > 0; k-- {
			g.Src = append(g.Src, int32(rng.Intn(90)))
			g.Dst = append(g.Dst, v)
			g.Type = append(g.Type, int32(rng.Intn(3)))
		}
	}
	order := make([]int32, g.NumEdges())
	for i := range order {
		order[i] = int32((i * 7) % len(order))
	}
	if len(order)%7 == 0 {
		t.Fatalf("%d edges: stride 7 is not a permutation", len(order))
	}
	all, err := NewGraphCtxOrder(g, order, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer all.Release()
	sub, err := NewGraphCtxOrder(g, order, targets)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Release()
	if _, err := NewGraphCtxOrder(g, order, targets[1:]); err == nil {
		t.Fatal("a row set missing a destination was accepted")
	}
	for kind := ModelKind(0); kind < NumModels; kind++ {
		l := inferModel(t, kind).Layers()[0]
		x := testInput(g.NumVertices, l.InDim(), 62)
		full := l.Infer(all, x)
		rows := l.Infer(sub, x)
		if rows.Dim(0) != len(targets) || rows.Dim(1) != l.OutDim() {
			t.Fatalf("%v: shape %v for %d targets", kind, rows.Shape(), len(targets))
		}
		for i, d := range targets {
			requireBitwise(t, fmt.Sprintf("%v target %d", kind, d), rows.Row(i), full.Row(int(d)))
		}
		tensor.Put(full)
		tensor.Put(rows)
	}
}
