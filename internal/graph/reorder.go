package graph

import "sort"

// ClusterReorder computes a Metis/Rabbit-style locality ordering: vertices
// are renamed so that vertices sharing many neighbors receive nearby ids.
// The paper notes (§4.3) that clustering reorders and WiseGraph's gTask
// partition compose — reorder first, then partition — so this is provided
// as the optional pre-pass.
//
// The implementation is a lightweight community ordering: repeated BFS from
// the highest-degree unvisited vertex, emitting vertices in visit order.
// It returns the newID mapping (old → new); apply with RelabelVertices.
func ClusterReorder(g *Graph) []int32 {
	n := g.NumVertices
	// Build an undirected adjacency once (both edge directions).
	deg := make([]int32, n)
	for e := range g.Src {
		deg[g.Src[e]]++
		deg[g.Dst[e]]++
	}
	ptr := make([]int32, n+1)
	for v := 0; v < n; v++ {
		ptr[v+1] = ptr[v] + deg[v]
	}
	adj := make([]int32, 2*len(g.Src))
	next := append([]int32(nil), ptr[:n]...)
	for e := range g.Src {
		s, d := g.Src[e], g.Dst[e]
		adj[next[s]] = d
		next[s]++
		adj[next[d]] = s
		next[d]++
	}

	order := make([]int32, 0, n)
	visited := make([]bool, n)
	seeds := make([]int32, n)
	for v := range seeds {
		seeds[v] = int32(v)
	}
	sort.Slice(seeds, func(i, j int) bool { return deg[seeds[i]] > deg[seeds[j]] })

	queue := make([]int32, 0, n)
	for _, seed := range seeds {
		if visited[seed] {
			continue
		}
		visited[seed] = true
		queue = append(queue[:0], seed)
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			order = append(order, v)
			for _, u := range adj[ptr[v]:ptr[v+1]] {
				if !visited[u] {
					visited[u] = true
					queue = append(queue, u)
				}
			}
		}
	}

	newID := make([]int32, n)
	for pos, v := range order {
		newID[v] = int32(pos)
	}
	return newID
}
