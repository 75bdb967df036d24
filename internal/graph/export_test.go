package graph

import "wisegraph/internal/tensor"

// samplePositionsDense is the shuffle samplePositions stands in for, on
// the array it never builds: the reference its draws are checked against.
func samplePositionsDense(n, take int, rng *tensor.RNG) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	if take >= n {
		return idx
	}
	for i := 0; i < take; i++ {
		j := i + rng.Intn(n-i)
		idx[i], idx[j] = idx[j], idx[i]
	}
	return idx[:take]
}

// DetSampleDense is DetSample over the dense shuffle, for tests outside the
// package (the ones that need a dataset).
func DetSampleDense(csr *CSR, v int32, fan int, seed uint64) []int32 {
	lo, hi := csr.RowPtr[v], csr.RowPtr[v+1]
	var out []int32
	for _, p := range samplePositionsDense(int(hi-lo), fan, tensor.NewRNG(mix3(seed, uint64(v), uint64(fan)))) {
		out = append(out, lo+int32(p))
	}
	return out
}
