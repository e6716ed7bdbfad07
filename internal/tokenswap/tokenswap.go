// Package tokenswap solves the token-swapping problem on coupling
// graphs: given a permutation of tokens over vertices, produce a sequence
// of edge swaps realizing it. Layout synthesis tools in the
// subgraph-isomorphism family (Siraichi et al., OOPSLA 2019) route by
// re-embedding circuit segments and paying a token-swapping transition
// between consecutive embeddings; this package provides that transition.
//
// The solver is the practical two-phase heuristic: a greedy phase applies
// "happy swaps" (edge swaps reducing the summed token distance by 2) and
// then productive swaps (reduction 1) while any exist; a tree phase
// finishes the stragglers by sorting tokens onto a BFS spanning tree
// leaves-first, which is guaranteed to terminate. Swap counts are within
// a small factor of the Σ-distance lower bound on the graphs used here.
package tokenswap

import (
	"fmt"
	"sort"

	"repro/internal/graph"
)

// Swap is one exchange of the tokens at the two endpoint vertices.
type Swap struct {
	U, V int
}

// SolveDist returns a swap sequence that transforms the identity
// arrangement into target: after applying the swaps, vertex v holds token
// target[v]. Formally, tokens are named by their destination: token t
// must travel to vertex t; initially vertex v holds token at[v] =
// target... callers usually think in terms of two placements; see
// TransitionDist.
//
// dist is g's distance matrix, supplied by the caller (every arch.Device
// caches its matrix behind Distances()) so repeated transitions on the
// same device never re-run the all-pairs BFS.
func SolveDist(g *graph.Graph, dist *graph.DistanceMatrix, tokenAt []int) ([]Swap, error) {
	n := g.N()
	if len(tokenAt) != n {
		return nil, fmt.Errorf("tokenswap: %d tokens for %d vertices", len(tokenAt), n)
	}
	// tokenAt[v] = token currently at v; token t wants to reach vertex t.
	at := append([]int(nil), tokenAt...)
	seen := make([]bool, n)
	for _, t := range at {
		if t < 0 || t >= n || seen[t] {
			return nil, fmt.Errorf("tokenswap: arrangement is not a permutation")
		}
		seen[t] = true
	}
	var out []Swap

	apply := func(u, v int) {
		at[u], at[v] = at[v], at[u]
		out = append(out, Swap{u, v})
	}
	// Distance of the token at vertex v to its home.
	tokDist := func(v int) int { return dist.At(v, at[v]) }

	// Greedy phase: prefer swaps with total improvement 2, then 1. Cap
	// iterations defensively; the tree phase below is always complete.
	maxGreedy := 4 * n * (g.M() + 1)
	for iter := 0; iter < maxGreedy; iter++ {
		bestU, bestV, bestGain := -1, -1, 0
		for _, e := range g.Edges() {
			u, v := e.U, e.V
			if at[u] == u && at[v] == v {
				continue
			}
			before := tokDist(u) + tokDist(v)
			after := dist.At(u, at[v]) + dist.At(v, at[u])
			if gain := before - after; gain > bestGain {
				bestU, bestV, bestGain = u, v, gain
				if gain == 2 {
					break
				}
			}
		}
		if bestGain <= 0 {
			break
		}
		apply(bestU, bestV)
	}

	// Tree phase: BFS spanning tree from vertex 0; fix positions deepest
	// first. The routing path for a token only crosses vertices shallower
	// than the destination, which are still unfixed.
	parent := make([]int, n)
	depth := g.BFSFrom(0)
	for v := range parent {
		parent[v] = -1
	}
	{
		queue := []int{0}
		visited := make([]bool, n)
		visited[0] = true
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, w := range g.Neighbors(v) {
				if !visited[w] {
					visited[w] = true
					parent[w] = v
					queue = append(queue, w)
				}
			}
		}
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return depth[order[a]] > depth[order[b]] })

	// treePath returns the tree path from a to b (inclusive).
	treePath := func(a, b int) []int {
		var pa, pb []int
		x, y := a, b
		for x != -1 {
			pa = append(pa, x)
			x = parent[x]
		}
		onPA := map[int]int{}
		for i, v := range pa {
			onPA[v] = i
		}
		for {
			if i, ok := onPA[y]; ok {
				path := append([]int(nil), pa[:i+1]...)
				for j := len(pb) - 1; j >= 0; j-- {
					path = append(path, pb[j])
				}
				return path
			}
			pb = append(pb, y)
			y = parent[y]
		}
	}

	pos := make([]int, n) // token -> current vertex
	for v, t := range at {
		pos[t] = v
	}
	for _, home := range order {
		t := home // token named by its destination
		cur := pos[t]
		if cur == home {
			continue
		}
		path := treePath(cur, home)
		for i := 0; i+1 < len(path); i++ {
			u, v := path[i], path[i+1]
			displaced := at[v]
			apply(u, v)
			pos[t] = v
			pos[displaced] = u
		}
	}
	for v, t := range at {
		if t != v {
			return nil, fmt.Errorf("tokenswap: internal error, token %d stranded at %d", t, v)
		}
	}
	return out, nil
}

// TransitionDist returns swaps moving arrangement "from" into arrangement
// "to", where from[q] and to[q] are the vertices assigned to item q. The
// returned swaps are on vertices; applying them to "from" yields "to".
// dist is g's distance matrix, as for SolveDist.
func TransitionDist(g *graph.Graph, dist *graph.DistanceMatrix, from, to []int) ([]Swap, error) {
	if len(from) != len(to) {
		return nil, fmt.Errorf("tokenswap: arrangement sizes differ")
	}
	n := g.N()
	// tokenAt[v]: which destination-vertex the item at v must reach.
	tokenAt := make([]int, n)
	for v := range tokenAt {
		tokenAt[v] = -1
	}
	occupied := make([]bool, n)
	destUsed := make([]bool, n)
	for q, fv := range from {
		tv := to[q]
		if fv < 0 || fv >= n || tv < 0 || tv >= n {
			return nil, fmt.Errorf("tokenswap: arrangement out of range")
		}
		if occupied[fv] {
			return nil, fmt.Errorf("tokenswap: duplicate source vertex %d", fv)
		}
		if destUsed[tv] {
			return nil, fmt.Errorf("tokenswap: duplicate destination vertex %d", tv)
		}
		occupied[fv] = true
		destUsed[tv] = true
		tokenAt[fv] = tv
	}
	// Free vertices carry don't-care tokens; pair them with the unused
	// destinations in index order (any bijection is valid).
	var freeDst []int
	for v := 0; v < n; v++ {
		if !destUsed[v] {
			freeDst = append(freeDst, v)
		}
	}
	fi := 0
	for v := 0; v < n; v++ {
		if tokenAt[v] == -1 {
			tokenAt[v] = freeDst[fi]
			fi++
		}
	}
	return SolveDist(g, dist, tokenAt)
}

// LowerBoundDist returns the Σ ceil(d/1)/... standard token-swapping
// lower bound max(Σ d_i / 2, max d_i) under the graph distance matrix
// dist: every swap reduces the total distance by at most 2, and the
// farthest token needs at least its distance in swaps.
func LowerBoundDist(dist *graph.DistanceMatrix, tokenAt []int) int {
	total, far := 0, 0
	for v, t := range tokenAt {
		d := dist.At(v, t)
		total += d
		if d > far {
			far = d
		}
	}
	lb := (total + 1) / 2
	if far > lb {
		lb = far
	}
	return lb
}
