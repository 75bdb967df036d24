// Placement decides which contiguous vertex range each shard owns. A shard
// holds the CSR rows and feature rows of one id range, so ownership is a
// two-comparison range check and the router's sorted frontier partitions
// into per-shard spans for free.
package shard

import (
	"fmt"
	"sort"

	"wisegraph/internal/graph"
)

// Boundaries returns the n+1 contiguous range bounds for n shards over
// the CSR's vertex space: shard i owns [bounds[i], bounds[i+1]). Boundary
// i is the first vertex whose cumulative in-edge count reaches i/n of the
// total, so owned aggregation work is balanced even when degree mass
// concentrates in one id range. Empty shards are legal on tiny graphs.
func Boundaries(csr *graph.CSR, n int) []int32 {
	if n < 1 {
		n = 1
	}
	v := len(csr.RowPtr) - 1
	e := int64(csr.RowPtr[v])
	b := make([]int32, n+1)
	for i := 1; i < n; i++ {
		target := e * int64(i) / int64(n)
		b[i] = int32(sort.Search(v, func(x int) bool {
			return int64(csr.RowPtr[x]) >= target
		}))
		if b[i] < b[i-1] {
			b[i] = b[i-1]
		}
	}
	b[n] = int32(v)
	return b
}

// AssignReplicas groups a flat daemon address list into the per-span
// replica sets of an R-way replicated placement: addrs[s*r : s*r+r] are
// the r interchangeable owners of span s, so out[s][j] is replica j of
// span s. This is the replica half of a placement — Boundaries picks
// where the spans fall, AssignReplicas says who serves each one. The
// flat order (all replicas of span 0, then span 1, ...) is the order
// -shard-addrs flags and Hello handshakes use everywhere.
func AssignReplicas(addrs []string, r int) ([][]string, error) {
	if r < 1 {
		r = 1
	}
	if len(addrs) == 0 || len(addrs)%r != 0 {
		return nil, fmt.Errorf("shard: %d addresses cannot form %d-way replica groups", len(addrs), r)
	}
	out := make([][]string, len(addrs)/r)
	for s := range out {
		out[s] = addrs[s*r : (s+1)*r : (s+1)*r]
	}
	return out, nil
}
