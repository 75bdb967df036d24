package tensor

import (
	"fmt"
	"math"

	"wisegraph/internal/parallel"
)

const ewGrain = 4096 // elements per parallel task for cheap elementwise ops

// Add computes dst = a + b elementwise. Shapes must match; dst may alias a.
func Add(dst, a, b *Tensor) *Tensor {
	checkSame(a, b, "Add")
	dst = ensureLike(dst, a)
	parallel.ForRange(len(a.data), ewGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			dst.data[i] = a.data[i] + b.data[i]
		}
	})
	return dst
}

// Mul computes dst = a ⊙ b (Hadamard product).
func Mul(dst, a, b *Tensor) *Tensor {
	checkSame(a, b, "Mul")
	dst = ensureLike(dst, a)
	parallel.ForRange(len(a.data), ewGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			dst.data[i] = a.data[i] * b.data[i]
		}
	})
	return dst
}

// Scale computes dst = s·a.
func Scale(dst, a *Tensor, s float32) *Tensor {
	dst = ensureLike(dst, a)
	parallel.ForRange(len(a.data), ewGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			dst.data[i] = s * a.data[i]
		}
	})
	return dst
}

// AXPY computes dst += s·a in place.
func AXPY(dst *Tensor, s float32, a *Tensor) {
	checkSame(dst, a, "AXPY")
	parallel.ForRange(len(a.data), ewGrain, func(lo, hi int) {
		AxpyRow(dst.data[lo:hi], s, a.data[lo:hi])
	})
}

// AddBias adds a bias row vector b [N] to every row of a [M,N] in place.
func AddBias(a, b *Tensor) {
	n := b.Len()
	if a.RowSize() != n {
		panic(fmt.Sprintf("tensor: AddBias row size %d vs bias %d", a.RowSize(), n))
	}
	parallel.For(a.Rows(), 64, func(i int) {
		AddRow(a.Row(i), b.data)
	})
}

// ReLU computes dst = max(a, 0).
func ReLU(dst, a *Tensor) *Tensor {
	dst = ensureLike(dst, a)
	parallel.ForRange(len(a.data), ewGrain, func(lo, hi int) {
		reluRow(dst.data[lo:hi], a.data[lo:hi])
	})
	return dst
}

// ReLUGrad computes dst = grad ⊙ 1[a > 0].
func ReLUGrad(dst, grad, a *Tensor) *Tensor {
	checkSame(grad, a, "ReLUGrad")
	dst = ensureLike(dst, a)
	parallel.ForRange(len(a.data), ewGrain, func(lo, hi int) {
		reluGradRow(dst.data[lo:hi], grad.data[lo:hi], a.data[lo:hi])
	})
	return dst
}

// LeakyReLU computes dst = a if a > 0 else slope·a.
func LeakyReLU(dst, a *Tensor, slope float32) *Tensor {
	dst = ensureLike(dst, a)
	parallel.ForRange(len(a.data), ewGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if v := a.data[i]; v > 0 {
				dst.data[i] = v
			} else {
				dst.data[i] = slope * v
			}
		}
	})
	return dst
}

// LeakyReLUGrad computes dst = grad ⊙ (1 if a > 0 else slope).
func LeakyReLUGrad(dst, grad, a *Tensor, slope float32) *Tensor {
	checkSame(grad, a, "LeakyReLUGrad")
	dst = ensureLike(dst, a)
	parallel.ForRange(len(a.data), ewGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if a.data[i] > 0 {
				dst.data[i] = grad.data[i]
			} else {
				dst.data[i] = slope * grad.data[i]
			}
		}
	})
	return dst
}

// Sigmoid computes dst = 1/(1+e^{-a}).
func Sigmoid(dst, a *Tensor) *Tensor {
	dst = ensureLike(dst, a)
	parallel.ForRange(len(a.data), ewGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			dst.data[i] = sigmoid32(a.data[i])
		}
	})
	return dst
}

// Tanh computes dst = tanh(a).
func Tanh(dst, a *Tensor) *Tensor {
	dst = ensureLike(dst, a)
	parallel.ForRange(len(a.data), ewGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			dst.data[i] = float32(math.Tanh(float64(a.data[i])))
		}
	})
	return dst
}

func sigmoid32(x float32) float32 {
	return float32(1 / (1 + math.Exp(-float64(x))))
}

func softmaxInto(out, row []float32) {
	maxv := row[0]
	for _, v := range row[1:] {
		if v > maxv {
			maxv = v
		}
	}
	var sum float64
	for j, v := range row {
		e := math.Exp(float64(v - maxv))
		out[j] = float32(e)
		sum += e
	}
	inv := float32(1 / sum)
	for j := range out {
		out[j] *= inv
	}
}

// CrossEntropy returns the mean negative log-likelihood of logits [M,C]
// under integer labels, restricted to rows in mask (all rows if mask nil).
// grad, if non-nil, receives d(loss)/d(logits) (zero outside the mask).
func CrossEntropy(logits *Tensor, labels []int32, mask []int32, grad *Tensor) float64 {
	m, c := logits.Dim(0), logits.Dim(1)
	if grad != nil {
		grad.Zero()
	}
	rows := mask
	if rows == nil {
		rows = make([]int32, m)
		for i := range rows {
			rows[i] = int32(i)
		}
	}
	if len(rows) == 0 {
		return 0
	}
	inv := float32(1) / float32(len(rows))
	var loss float64
	probs := getStorage(c)
	defer putStorage(probs)
	for _, ri := range rows {
		row := logits.data[int(ri)*c : (int(ri)+1)*c]
		softmaxInto(probs, row)
		p := probs[labels[ri]]
		if p < 1e-12 {
			p = 1e-12
		}
		loss -= math.Log(float64(p))
		if grad != nil {
			g := grad.data[int(ri)*c : (int(ri)+1)*c]
			for j, pv := range probs {
				g[j] = pv * inv
			}
			g[labels[ri]] -= inv
		}
	}
	return loss / float64(len(rows))
}

// ArgMaxRows returns the index of the maximum element of each row.
func ArgMaxRows(a *Tensor) []int32 {
	m := a.Rows()
	n := a.RowSize()
	out := make([]int32, m)
	parallel.For(m, 64, func(i int) {
		row := a.data[i*n : (i+1)*n]
		best := 0
		for j, v := range row[1:] {
			if v > row[best] {
				best = j + 1
			}
		}
		out[i] = int32(best)
	})
	return out
}

func checkSame(a, b *Tensor, op string) {
	if !a.SameShape(b) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %v vs %v", op, a.Shape(), b.Shape()))
	}
}

func ensureLike(dst, a *Tensor) *Tensor {
	if dst == nil {
		return New(a.shape...)
	}
	if len(dst.data) != len(a.data) {
		panic(fmt.Sprintf("tensor: destination length %d, want %d", len(dst.data), len(a.data)))
	}
	return dst
}
