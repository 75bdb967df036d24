package dfg

import (
	"fmt"

	"wisegraph/internal/tensor"
)

// Env binds DFG symbols to concrete data for interpretation.
type Env struct {
	// Tensors binds OpInput names to dense tensors.
	Tensors map[string]*tensor.Tensor
	// Indices binds IdxKey names to index arrays (per-edge attribute
	// values, unique-value arrays, or mapping arrays from unique-value
	// extraction).
	Indices map[string][]int32
	// Sizes binds OutRowsKey names to output row counts for OpIndexAdd.
	Sizes map[string]int
}

// Eval interprets the DFG over env and returns the output tensor. It is
// the reference executor used to check that transformed DFGs are
// equivalent to the originals; the production kernels in internal/kernels
// fuse these steps. The segment softmax, scale and LSTM nodes, which no
// transformation rewrites, have no interpretation here.
func (g *Graph) Eval(env *Env) (*tensor.Tensor, error) {
	if g.Output == nil {
		return nil, fmt.Errorf("dfg: no output designated")
	}
	vals := make(map[*Node]*tensor.Tensor, len(g.Nodes))
	var eval func(n *Node) (*tensor.Tensor, error)
	eval = func(n *Node) (*tensor.Tensor, error) {
		if v, ok := vals[n]; ok {
			return v, nil
		}
		for _, in := range n.Inputs {
			if _, err := eval(in); err != nil {
				return nil, err
			}
		}
		v, err := evalNode(n, vals, env)
		if err != nil {
			return nil, fmt.Errorf("dfg: node %d (%v): %w", n.ID, n.Kind, err)
		}
		vals[n] = v
		return v, nil
	}
	return eval(g.Output)
}

func evalNode(n *Node, vals map[*Node]*tensor.Tensor, env *Env) (*tensor.Tensor, error) {
	in := func(i int) *tensor.Tensor { return vals[n.Inputs[i]] }
	switch n.Kind {
	case OpInput:
		t, ok := env.Tensors[n.Name]
		if !ok {
			return nil, fmt.Errorf("unbound input %q", n.Name)
		}
		return t, nil
	case OpIndex:
		idx, ok := env.Indices[n.IdxKey]
		if !ok {
			return nil, fmt.Errorf("unbound index %q", n.IdxKey)
		}
		out := tensor.GatherRows(tensor.New(len(idx), in(0).RowSize()), in(0), idx)
		return out.Reshape(append([]int{len(idx)}, n.Cols...)...), nil
	case OpIndex2D:
		ri, ok := env.Indices[n.IdxKey]
		if !ok {
			return nil, fmt.Errorf("unbound index %q", n.IdxKey)
		}
		ci, ok := env.Indices[n.IdxKey2]
		if !ok {
			return nil, fmt.Errorf("unbound index %q", n.IdxKey2)
		}
		src := in(0)
		if src.Dim(0) == 0 || src.Dim(1) == 0 {
			return nil, fmt.Errorf("gather2d source %v has an empty leading dimension", src.Shape())
		}
		inner := src.Len() / (src.Dim(0) * src.Dim(1))
		out := tensor.Gather2D(tensor.New(len(ri), inner), src, ri, ci)
		return out.Reshape(append([]int{len(ri)}, n.Cols...)...), nil
	case OpIndexAdd:
		idx, ok := env.Indices[n.IdxKey]
		if !ok {
			return nil, fmt.Errorf("unbound index %q", n.IdxKey)
		}
		rows, ok := env.Sizes[n.OutRowsKey]
		if !ok {
			return nil, fmt.Errorf("unbound size %q", n.OutRowsKey)
		}
		src := in(0)
		shape := append([]int{rows}, src.Shape()[1:]...)
		out := tensor.New(shape...)
		tensor.ScatterAddRows(out, src, idx)
		return out, nil
	case OpLinear:
		x, w := in(0), in(1)
		x2 := x.Reshape(x.Rows(), -1)
		w2 := w.Reshape(w.Dim(w.Dims()-2), w.Dim(w.Dims()-1))
		return tensor.MatMul(tensor.New(x2.Dim(0), w2.Dim(1)), x2, w2), nil
	case OpBMM:
		x, w := in(0), in(1)
		r := x.Rows()
		f := x.RowSize()
		fp := w.Dim(w.Dims() - 1)
		out := tensor.BatchedMatMul(tensor.New(r, 1, fp), x.Reshape(r, 1, f), w.Reshape(r, f, fp))
		return out.Reshape(r, fp), nil
	case OpOuterMM:
		x, w := in(0), in(1)
		m := x.Rows()
		f := x.RowSize()
		nW := w.Dim(0)
		fp := w.Dim(w.Dims() - 1)
		out := tensor.New(m, nW, fp)
		prod := tensor.New(m, fp)
		for j := 0; j < nW; j++ {
			wj := tensor.FromSlice(w.Data()[j*f*fp:(j+1)*f*fp], f, fp)
			tensor.MatMul(prod, x.Reshape(m, f), wj)
			for i := 0; i < m; i++ {
				copy(out.Data()[(i*nW+j)*fp:(i*nW+j+1)*fp], prod.Row(i))
			}
		}
		return out, nil
	case OpEWAdd:
		return tensor.Add(tensor.New(in(0).Shape()...), in(0), in(1)), nil
	case OpEWMul:
		return tensor.Mul(tensor.New(in(0).Shape()...), in(0), in(1)), nil
	case OpReLU:
		return tensor.ReLU(tensor.New(in(0).Shape()...), in(0)), nil
	case OpLeakyReLU:
		return tensor.LeakyReLU(tensor.New(in(0).Shape()...), in(0), n.Slope), nil
	case OpTanh:
		return tensor.Tanh(tensor.New(in(0).Shape()...), in(0)), nil
	case OpSigmoid:
		return tensor.Sigmoid(tensor.New(in(0).Shape()...), in(0)), nil
	default:
		return nil, fmt.Errorf("unknown op kind %v", n.Kind)
	}
}

// UniqueExtract computes the unique values of idx (in first-appearance
// order) and the mapping array such that idx[i] == unique[mapping[i]].
// This is the runtime companion of the unique-value-extraction
// transformation (paper Figure 8a).
func UniqueExtract(idx []int32) (unique, mapping []int32) {
	pos := make(map[int32]int32, len(idx))
	mapping = make([]int32, len(idx))
	for i, v := range idx {
		p, ok := pos[v]
		if !ok {
			p = int32(len(unique))
			pos[v] = p
			unique = append(unique, v)
		}
		mapping[i] = p
	}
	return unique, mapping
}
