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
	var wg sync.WaitGroup
	results := make([][]int32, 16)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 0 {
				results[i] = g.InDegrees()
			} else {
				results[i] = g.OutDegrees()
			}
		}(i)
	}
	wg.Wait()
	for i := 2; i < len(results); i += 2 {
		if !reflect.DeepEqual(results[i], results[0]) {
			t.Fatal("concurrent InDegrees calls disagreed")
		}
	}
	for i := 3; i < len(results); i += 2 {
		if !reflect.DeepEqual(results[i], results[1]) {
			t.Fatal("concurrent OutDegrees calls disagreed")
		}
	}
}
