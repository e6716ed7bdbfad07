// Package graph provides the undirected-graph substrate used throughout the
// QUBIKOS reproduction: coupling graphs, interaction graphs, breadth-first
// search, connectivity, and subgraph-isomorphism testing.
package graph

import (
	"fmt"
	"sort"
)

// Edge is an undirected edge between two vertices. The order of U and V is
// not significant; Normalize puts the smaller endpoint first.
type Edge struct {
	U, V int
}

// Normalize returns the edge with endpoints ordered so that U <= V.
func (e Edge) Normalize() Edge {
	if e.U > e.V {
		return Edge{e.V, e.U}
	}
	return e
}

// Graph is a simple undirected graph on vertices 0..N-1 with adjacency-list
// and adjacency-bitset representations maintained together: the lists give
// ordered neighbor iteration, the flat bitset gives branch-cheap O(1)
// HasEdge with no per-query allocation or hashing, which is what SABRE's
// execute-front loop hammers. The zero value is not usable; construct with
// New.
type Graph struct {
	n      int
	adj    [][]int
	bits   []uint64 // n rows of stride words; bit v of row u set iff (u,v) is an edge
	stride int      // words per bitset row: (n+63)/64
	edges  []Edge
}

// New returns an empty graph on n vertices.
func New(n int) *Graph {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	stride := (n + 63) / 64
	return &Graph{
		n:      n,
		adj:    make([][]int, n),
		bits:   make([]uint64, n*stride),
		stride: stride,
	}
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int { return len(g.edges) }

// AddEdge inserts the undirected edge (u,v). It returns an error on
// out-of-range endpoints, self-loops, or duplicate edges.
func (g *Graph) AddEdge(u, v int) error {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, g.n)
	}
	if u == v {
		return fmt.Errorf("graph: self-loop on vertex %d", u)
	}
	if w, m := g.edgeBit(u, v); g.bits[w]&m != 0 {
		return fmt.Errorf("graph: duplicate edge (%d,%d)", u, v)
	}
	w, m := g.edgeBit(u, v)
	g.bits[w] |= m
	w, m = g.edgeBit(v, u)
	g.bits[w] |= m
	g.adj[u] = append(g.adj[u], v)
	g.adj[v] = append(g.adj[v], u)
	g.edges = append(g.edges, Edge{u, v}.Normalize())
	return nil
}

// edgeBit locates edge (u,v) in the flat adjacency bitset: the word
// index of row u's block holding v, and the mask selecting v's bit.
func (g *Graph) edgeBit(u, v int) (word int, mask uint64) {
	return u*g.stride + v/64, 1 << (uint(v) & 63)
}

// HasEdge reports whether (u,v) is an edge. Out-of-range vertices are
// simply not adjacent.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return false
	}
	w, m := g.edgeBit(u, v)
	return g.bits[w]&m != 0
}

// Neighbors returns the adjacency list of v. The returned slice is owned by
// the graph and must not be modified.
func (g *Graph) Neighbors(v int) []int { return g.adj[v] }

// Degree returns the degree of v.
func (g *Graph) Degree(v int) int { return len(g.adj[v]) }

// MaxDegree returns the maximum vertex degree, or 0 for an empty graph.
func (g *Graph) MaxDegree() int {
	max := 0
	for v := 0; v < g.n; v++ {
		if d := g.Degree(v); d > max {
			max = d
		}
	}
	return max
}

// Edges returns a copy of the edge list with normalized endpoint order.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, len(g.edges))
	copy(out, g.edges)
	return out
}

// NeighborEdgeIDs returns, for every vertex v, the index into Edges() of
// the edge to each neighbor, parallel to Neighbors(v). Routing engines
// stamp candidate SWAPs on these ids instead of on an n×n pair table.
// AddEdge appends to both adjacency lists and to the edge list in
// lockstep, so the j-th neighbor of v is joined by the j-th edge incident
// to v and one pass over the edges fills every row. The rows share one
// backing array; callers must not modify them.
func (g *Graph) NeighborEdgeIDs() [][]int32 {
	flat := make([]int32, 2*len(g.edges))
	out := make([][]int32, g.n)
	off := 0
	for v := range out {
		d := len(g.adj[v])
		out[v] = flat[off : off : off+d]
		off += d
	}
	for i, e := range g.edges {
		out[e.U] = append(out[e.U], int32(i))
		out[e.V] = append(out[e.V], int32(i))
	}
	return out
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := New(g.n)
	for _, e := range g.edges {
		if err := c.AddEdge(e.U, e.V); err != nil {
			panic(err) // unreachable: source graph is simple
		}
	}
	return c
}

// DegreeSequence returns the sorted (descending) degree sequence.
func (g *Graph) DegreeSequence() []int {
	ds := make([]int, g.n)
	for v := range ds {
		ds[v] = g.Degree(v)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(ds)))
	return ds
}

// BFSFrom runs a breadth-first search from the given source vertices
// (all at distance 0) and returns the distance to every vertex, with -1 for
// unreachable vertices.
func (g *Graph) BFSFrom(sources ...int) []int {
	dist := make([]int, g.n)
	for i := range dist {
		dist[i] = -1
	}
	queue := make([]int, 0, g.n)
	for _, s := range sources {
		if s < 0 || s >= g.n {
			panic(fmt.Sprintf("graph: BFS source %d out of range", s))
		}
		if dist[s] == -1 {
			dist[s] = 0
			queue = append(queue, s)
		}
	}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range g.adj[v] {
			if dist[w] == -1 {
				dist[w] = dist[v] + 1
				queue = append(queue, w)
			}
		}
	}
	return dist
}

// BFSAllEdgeOrder runs a BFS from the given sources and returns every edge
// reachable from them, each exactly once, in discovery order: an edge is
// emitted when its first endpoint is dequeued, so at emission time at
// least one endpoint has already been visited (for tree edges) or both
// have (for cross edges). This is the ordering QUBIKOS uses to serialize
// section gates: consecutive prefixes always touch previously visited
// qubits, which chains gate dependencies back to the BFS sources. Edges in
// skip are neither emitted nor traversed.
func (g *Graph) BFSAllEdgeOrder(sources []int, skip map[Edge]bool) []Edge {
	visited := make([]bool, g.n)
	emitted := make(map[Edge]bool)
	queue := make([]int, 0, g.n)
	for _, s := range sources {
		if !visited[s] {
			visited[s] = true
			queue = append(queue, s)
		}
	}
	var order []Edge
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range g.adj[v] {
			e := Edge{v, w}.Normalize()
			if skip != nil && skip[e] {
				continue
			}
			if !emitted[e] {
				emitted[e] = true
				order = append(order, Edge{v, w})
			}
			if !visited[w] {
				visited[w] = true
				queue = append(queue, w)
			}
		}
	}
	return order
}

// Connected reports whether the graph is connected. The empty graph and the
// single-vertex graph are connected.
func (g *Graph) Connected() bool {
	if g.n <= 1 {
		return true
	}
	dist := g.BFSFrom(0)
	for _, d := range dist {
		if d == -1 {
			return false
		}
	}
	return true
}
