package graph

import (
	"reflect"
	"sync"
	"testing"

	"wisegraph/internal/tensor"
)

// randomGraph builds a typed random graph.
func randomGraph(v, e int, seed uint64) *Graph {
	rng := tensor.NewRNG(seed)
	g := &Graph{NumVertices: v, NumTypes: 4}
	g.Src = make([]int32, e)
	g.Dst = make([]int32, e)
	g.Type = make([]int32, e)
	for i := 0; i < e; i++ {
		g.Src[i] = int32(rng.Intn(v))
		g.Dst[i] = int32(rng.Intn(v))
		g.Type[i] = int32(rng.Intn(g.NumTypes))
	}
	return g
}

// TestDegreeCachesConcurrent is a race regression test: the lazy inDeg /
// outDeg caches used to be filled without synchronization, so concurrent
// joint-search workers sharing one graph raced on first access. Run with
// -race (scripts/check.sh does).
func TestDegreeCachesConcurrent(t *testing.T) {
	g := randomGraph(500, 5000, 1)
	// Per vertex and per edge, in and out: each cache is built by one of
	// its concurrent first callers and read by the others.
	getters := []func() []int32{g.InDegrees, g.OutDegrees, g.DstDegrees, g.SrcDegrees}
	var wg sync.WaitGroup
	results := make([][]int32, 16)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = getters[i%len(getters)]()
		}(i)
	}
	wg.Wait()
	for i := len(getters); i < len(results); i++ {
		if !reflect.DeepEqual(results[i], results[i%len(getters)]) {
			t.Fatalf("concurrent calls of degree cache %d disagreed", i%len(getters))
		}
	}
	in, out := results[0], results[1]
	for e := range g.Src {
		if results[2][e] != in[g.Dst[e]] || results[3][e] != out[g.Src[e]] {
			t.Fatalf("edge %d: degree columns (%d, %d), want in-degree of dst %d and out-degree of src %d",
				e, results[2][e], results[3][e], in[g.Dst[e]], out[g.Src[e]])
		}
	}
}
