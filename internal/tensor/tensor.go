// Package tensor implements the dense-tensor substrate WiseGraph's neural
// operations run on: contiguous row-major float32 tensors with parallel
// blocked matrix multiply, elementwise kernels, and the gather/scatter
// primitives indexing operations compile to.
//
// The package replaces the PyTorch/cuDNN layer the paper builds on. It is
// deliberately minimal — only the operators the five evaluated GNN models
// (GCN, SAGE, SAGE-LSTM, GAT, RGCN) and their gradients require — but each
// operator is a real implementation, not a stub: numerics are exact enough
// to train models to the accuracies reported in EXPERIMENTS.md.
package tensor

import (
	"fmt"
	"math"
)

// Tensor is a dense row-major float32 tensor. The zero value is an empty
// scalar-less tensor; use the constructors.
type Tensor struct {
	data  []float32
	shape []int
}

// New returns a zero-filled tensor with the given shape.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension %d in shape %v", d, shape))
		}
		n *= d
	}
	return &Tensor{data: make([]float32, n), shape: append([]int(nil), shape...)}
}

// FromSlice wraps data (without copying) in a tensor of the given shape.
// len(data) must equal the product of the shape.
func FromSlice(data []float32, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(data) {
		panic(fmt.Sprintf("tensor: shape %v needs %d elements, got %d", shape, n, len(data)))
	}
	return &Tensor{data: data, shape: append([]int(nil), shape...)}
}

// Data returns the backing slice. Mutating it mutates the tensor.
func (t *Tensor) Data() []float32 { return t.data }

// Shape returns the tensor's dimensions. The caller must not mutate it.
func (t *Tensor) Shape() []int { return t.shape }

// Dims returns the number of dimensions.
func (t *Tensor) Dims() int { return len(t.shape) }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.data) }

// Rows returns the size of the leading dimension (0 for a 0-d tensor).
func (t *Tensor) Rows() int {
	if len(t.shape) == 0 {
		return 0
	}
	return t.shape[0]
}

// RowSize returns the number of elements per leading-dimension row.
func (t *Tensor) RowSize() int {
	if len(t.shape) == 0 {
		return 0
	}
	n := 1
	for _, d := range t.shape[1:] {
		n *= d
	}
	return n
}

// Row returns a view of row i of the leading dimension as a flat slice.
func (t *Tensor) Row(i int) []float32 {
	rs := t.RowSize()
	return t.data[i*rs : (i+1)*rs]
}

// At returns the element at the given multi-index.
func (t *Tensor) At(idx ...int) float32 { return t.data[t.offset(idx)] }

// Set stores v at the given multi-index.
func (t *Tensor) Set(v float32, idx ...int) { t.data[t.offset(idx)] = v }

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index %v does not match shape %v", idx, t.shape))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.shape))
		}
		off = off*t.shape[i] + x
	}
	return off
}

// Reshape returns a view with a new shape; the element count must match.
// One dimension may be -1 to be inferred.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	infer := -1
	n := 1
	for i, d := range shape {
		if d == -1 {
			if infer >= 0 {
				panic("tensor: multiple -1 dimensions in Reshape")
			}
			infer = i
			continue
		}
		n *= d
	}
	out := append([]int(nil), shape...)
	if infer >= 0 {
		if n == 0 || len(t.data)%n != 0 {
			panic(fmt.Sprintf("tensor: cannot infer dimension for shape %v from %d elements", shape, len(t.data)))
		}
		out[infer] = len(t.data) / n
		n *= out[infer]
	}
	if n != len(t.data) {
		panic(fmt.Sprintf("tensor: reshape %v incompatible with %d elements", shape, len(t.data)))
	}
	return &Tensor{data: t.data, shape: out}
}

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	d := make([]float32, len(t.data))
	copy(d, t.data)
	return &Tensor{data: d, shape: append([]int(nil), t.shape...)}
}

// Zero sets every element to 0.
func (t *Tensor) Zero() {
	for i := range t.data {
		t.data[i] = 0
	}
}

// CopyFrom copies src's elements into t. Shapes must have equal length.
func (t *Tensor) CopyFrom(src *Tensor) {
	if len(src.data) != len(t.data) {
		panic(fmt.Sprintf("tensor: CopyFrom length mismatch %d vs %d", len(src.data), len(t.data)))
	}
	copy(t.data, src.data)
}

// SameShape reports whether t and o have identical shapes.
func (t *Tensor) SameShape(o *Tensor) bool {
	if len(t.shape) != len(o.shape) {
		return false
	}
	for i := range t.shape {
		if t.shape[i] != o.shape[i] {
			return false
		}
	}
	return true
}

// String renders a compact description (shape plus a few leading values).
func (t *Tensor) String() string {
	k := len(t.data)
	if k > 8 {
		k = 8
	}
	return fmt.Sprintf("Tensor%v%v…", t.shape, t.data[:k])
}

// Sum returns the sum of all elements (in float64 for stability).
func (t *Tensor) Sum() float64 {
	var s float64
	for _, v := range t.data {
		s += float64(v)
	}
	return s
}

// AllFinite reports whether every element is finite (no NaN/Inf).
func (t *Tensor) AllFinite() bool {
	for _, v := range t.data {
		f := float64(v)
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return false
		}
	}
	return true
}
