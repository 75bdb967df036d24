package tensor

import (
	"math/bits"
	"sync"
)

// Buffer pooling. Training runs the same DFG every iteration, so every
// intermediate tensor it allocates has the same shape as last iteration's
// — the allocator work and GC pressure are pure overhead. Get/Put is a
// process-wide, size-bucketed recycle pool (sync.Pool backed).
// Concurrency-safe; the storage survives between users, so Get zero-fills
// before handing a tensor out.
//
// Pooled storage is always a power-of-two capacity so a bucket index is
// recoverable from cap() alone.

const poolBuckets = 31

var storagePool [poolBuckets]sync.Pool

// bucketFor returns the smallest b with 1<<b ≥ n (n ≥ 1).
func bucketFor(n int) int { return bits.Len(uint(n - 1)) }

// Get returns a zero-filled tensor of the given shape, reusing recycled
// storage when available. Pair with Put to recycle. The zero fill (+0 in
// every element) is part of the contract: accumulating callers — MatMulAcc,
// MatMulRowsAcc, VecMatAcc, AxpyRow and ScatterAddRows into a fresh Get —
// start their sums from it and must not clear again, while overwriting
// callers (MatMul, ReLU, GatherRows as dst) need not rely on it.
func Get(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic("tensor: negative dimension in Get")
		}
		n *= d
	}
	if n == 0 {
		return New(shape...)
	}
	return &Tensor{data: getStorage(n), shape: append([]int(nil), shape...)}
}

// GetF32 returns a zero-filled []float32 of length n from the tensor
// storage pool. Pair with PutF32.
func GetF32(n int) []float32 {
	if n == 0 {
		return nil
	}
	return getStorage(n)
}

// PutF32 recycles s into the pool. The caller must not use s afterwards.
func PutF32(s []float32) { putStorage(s) }

// getStorage returns a zeroed []float32 of length n with pow2 capacity.
func getStorage(n int) []float32 {
	b := bucketFor(n)
	if b >= poolBuckets {
		return make([]float32, n)
	}
	if p, ok := storagePool[b].Get().(*[]float32); ok {
		d := (*p)[:n]
		for i := range d {
			d[i] = 0
		}
		return d
	}
	return make([]float32, n, 1<<b)
}

// Put recycles t's storage into the pool. The caller must not use t (or
// any view sharing its storage, e.g. from Reshape) afterwards; t is
// emptied to make accidental reuse fail fast.
func Put(t *Tensor) {
	if t == nil {
		return
	}
	putStorage(t.data)
	t.data = nil
	t.shape = nil
}

func putStorage(d []float32) {
	c := cap(d)
	if c == 0 || c&(c-1) != 0 { // only pow2 capacities are bucket-addressable
		return
	}
	b := bits.Len(uint(c)) - 1
	if b >= poolBuckets {
		return
	}
	s := d[:0]
	storagePool[b].Put(&s)
}

// i32BucketPool recycles []int32 scratch with the same power-of-two bucketing
// as the float32 storage pool. The graph partitioner is the main client:
// radix-sort columns, histograms and stamp arrays are all int32 and are
// reallocated per PartitionGraph call without it.
var i32BucketPool [poolBuckets]sync.Pool

// GetI32 returns a zero-filled []int32 of length n with power-of-two
// capacity, reusing recycled storage when available. Pair with PutI32.
func GetI32(n int) []int32 {
	if n == 0 {
		return nil
	}
	b := bucketFor(n)
	if b >= poolBuckets {
		return make([]int32, n)
	}
	if p, ok := i32BucketPool[b].Get().(*[]int32); ok {
		d := (*p)[:n]
		for i := range d {
			d[i] = 0
		}
		return d
	}
	return make([]int32, n, 1<<b)
}

// PutI32 recycles s into the pool. The caller must not use s afterwards.
func PutI32(s []int32) {
	c := cap(s)
	if c == 0 || c&(c-1) != 0 { // only pow2 capacities are bucket-addressable
		return
	}
	b := bits.Len(uint(c)) - 1
	if b >= poolBuckets {
		return
	}
	d := s[:0]
	i32BucketPool[b].Put(&d)
}
