// Package dist simulates multi-device GNN training (paper §5.4): vertex
// embeddings partitioned across devices, collective communication over a
// PCIe-4.0-class interconnect, and the operation placement decision —
// whether to communicate before or after a computation — driven by the
// changing-data-volume pattern.
//
// The real system runs NCCL over 4× A100; here collectives are priced
// with an α+β cost model and per-device compute with the same device
// model the single-GPU path uses. Communication *volumes* are computed
// exactly from the partitioned graph, which is all the placement decision
// depends on.
package dist

import (
	"fmt"

	"wisegraph/internal/device"
	"wisegraph/internal/graph"
)

// LinkSpec models the interconnect between devices.
type LinkSpec struct {
	// Alpha is the fixed per-collective latency (seconds).
	Alpha float64
	// Bandwidth is per-device effective bandwidth (bytes/second).
	Bandwidth float64
}

// PCIe4 returns the paper's interconnect (PCIe-4.0 x16, ~25 GB/s, NCCL
// launch latency ~20 µs).
func PCIe4() LinkSpec { return LinkSpec{Alpha: 20e-6, Bandwidth: 25e9} }

// Cluster is a set of identical devices joined by a link.
type Cluster struct {
	N    int
	Dev  device.Spec
	Link LinkSpec
}

// NewCluster builds an n-device cluster (paper: 4× A100 over PCIe-4.0).
func NewCluster(n int) Cluster {
	return Cluster{N: n, Dev: device.A100(), Link: PCIe4()}
}

// AllToAll returns the time for an all-to-all where each device
// contributes totalBytes/N and receives (N-1)/N of it from peers.
func (c Cluster) AllToAll(totalBytes float64) float64 {
	if c.N <= 1 {
		return 0
	}
	per := totalBytes / float64(c.N) * float64(c.N-1) / float64(c.N)
	return c.Link.Alpha + per/c.Link.Bandwidth
}

// ReduceScatter returns reduce-scatter time for totalBytes per device.
func (c Cluster) ReduceScatter(totalBytes float64) float64 {
	if c.N <= 1 {
		return 0
	}
	return c.Link.Alpha + totalBytes*float64(c.N-1)/float64(c.N)/c.Link.Bandwidth
}

// GraphStats summarizes the communication-relevant structure of a graph
// partitioned into contiguous vertex blocks, one per device.
type GraphStats struct {
	V, E int
	// CrossEdges counts edges whose source lives on a different device
	// than their destination.
	CrossEdges int
	// UniqRemoteSrc counts distinct (device, remote source) pairs — the
	// deduplicated communication volume.
	UniqRemoteSrc int
	// MaxDeviceEdges is the largest per-device edge count (compute
	// makespan across devices).
	MaxDeviceEdges int
}

// Analyze partitions g's vertices into n contiguous blocks and computes
// the cross-device statistics.
func Analyze(g *graph.Graph, n int) GraphStats {
	if n < 1 {
		n = 1
	}
	gs := GraphStats{V: g.NumVertices, E: g.NumEdges()}
	blockOf := func(v int32) int { return BlockOf(v, n, g.NumVertices) }
	perDev := make([]int, n)
	seen := make(map[int64]struct{})
	for e := range g.Src {
		src, dst := g.Src[e], g.Dst[e]
		db := blockOf(dst)
		perDev[db]++
		if blockOf(src) != db {
			gs.CrossEdges++
			key := int64(db)*int64(g.NumVertices) + int64(src)
			if _, ok := seen[key]; !ok {
				seen[key] = struct{}{}
				gs.UniqRemoteSrc++
			}
		}
	}
	for _, pe := range perDev {
		if pe > gs.MaxDeviceEdges {
			gs.MaxDeviceEdges = pe
		}
	}
	return gs
}

// BlockOf returns the contiguous block owning vertex v when numV vertices
// split into n blocks with boundaries d·numV/n — consistent with the
// engine's blockStart ranges even when numV is not divisible by n.
func BlockOf(v int32, n, numV int) int {
	d := int(v) * n / numV
	for d+1 < n && (d+1)*numV/n <= int(v) {
		d++
	}
	for d > 0 && d*numV/n > int(v) {
		d--
	}
	return d
}

// String describes the stats.
func (gs GraphStats) String() string {
	return fmt.Sprintf("dist{V=%d E=%d cross=%d uniqRemote=%d}", gs.V, gs.E, gs.CrossEdges, gs.UniqRemoteSrc)
}
