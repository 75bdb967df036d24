package tensor

import (
	"sync"

	"wisegraph/internal/parallel"
)

// Destination binning for scatter reductions. Instead of every worker
// rescanning the full edge list and skipping edges outside its shard
// (O(workers × E)), the index array is partitioned once into per-shard
// position lists (O(E)) and each worker walks only its own list. Shards
// partition the destination-row range, so no two workers ever write the
// same row, and the per-shard lists keep the original edge order, so each
// destination row accumulates its contributions in exactly the order the
// sequential loop would — results are bitwise identical.

// Bins is a stable partition of index positions by destination shard.
// Shard s owns destination rows [s·rowsPer, (s+1)·rowsPer).
type Bins struct {
	shards  int
	rowsPer int
	offsets []int32 // len shards+1
	order   []int32 // positions grouped by shard, original order within
}

// NumShards returns the shard count the bins were built for.
func (b *Bins) NumShards() int { return b.shards }

// Shard returns the index positions owned by shard s, in original order.
func (b *Bins) Shard(s int) []int32 {
	return b.order[b.offsets[s]:b.offsets[s+1]]
}

// Len returns the number of binned positions.
func (b *Bins) Len() int { return len(b.order) }

// BinRows partitions positions of idx by destination shard for rows
// destination rows split across shards workers. reuse, when non-nil, is
// overwritten and returned to avoid reallocation.
func BinRows(reuse *Bins, idx []int32, rows, shards int) *Bins {
	if shards < 1 {
		shards = 1
	}
	if shards > rows && rows > 0 {
		shards = rows
	}
	b := reuse
	if b == nil {
		b = &Bins{}
	}
	b.shards = shards
	b.rowsPer = (rows + shards - 1) / shards
	if b.rowsPer < 1 {
		b.rowsPer = 1
	}
	b.offsets = growInt32(b.offsets, shards+1)
	b.order = growInt32(b.order, len(idx))
	counts := b.offsets // reuse as scratch: counts[s+1] accumulates shard s
	for i := range counts {
		counts[i] = 0
	}
	per := int32(b.rowsPer)
	for _, ix := range idx {
		counts[ix/per+1]++
	}
	for s := 0; s < shards; s++ {
		counts[s+1] += counts[s]
	}
	next := GetI32(shards)
	copy(next, counts[:shards])
	for i, ix := range idx {
		s := ix / per
		b.order[next[s]] = int32(i)
		next[s]++
	}
	PutI32(next)
	return b
}

// growInt32 returns a slice of length n, reusing s's storage when it is
// large enough.
func growInt32(s []int32, n int) []int32 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]int32, n)
}

// binsPool recycles whole Bins values for scatter calls that cannot keep
// one alive across iterations.
var binsPool = sync.Pool{New: func() any { return &Bins{} }}

// scatterShards picks the shard count for a scatter over rows
// destination rows and nnz index entries.
func scatterShards(rows, nnz int) int {
	w := parallel.Workers(rows, 1)
	if w > nnz {
		w = nnz
	}
	return w
}
