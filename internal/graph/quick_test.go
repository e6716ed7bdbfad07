package graph

import (
	"testing"
	"testing/quick"
)

// quickGraph derives a simple graph on n vertices from arbitrary bytes.
func quickGraph(data []byte, n int) *Graph {
	g := New(n)
	for i := 0; i+1 < len(data); i += 2 {
		u := int(data[i]) % n
		v := int(data[i+1]) % n
		if u != v && !g.HasEdge(u, v) {
			if err := g.AddEdge(u, v); err != nil {
				panic(err)
			}
		}
	}
	return g
}

// Property: BFS distances satisfy the metric axioms restricted to graphs
// (identity, symmetry via undirectedness, and the edge-relaxation
// triangle inequality |d(u) - d(v)| <= 1 for adjacent u,v).
func TestQuickBFSMetric(t *testing.T) {
	f := func(data []byte) bool {
		g := quickGraph(data, 8)
		for s := 0; s < g.N(); s++ {
			d := g.BFSFrom(s)
			if d[s] != 0 {
				return false
			}
			for _, e := range g.Edges() {
				du, dv := d[e.U], d[e.V]
				if du == -1 != (dv == -1) {
					return false // adjacent vertices share reachability
				}
				if du != -1 && abs(du-dv) > 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// Property: degree sums equal twice the edge count.
func TestQuickHandshakeAndComponents(t *testing.T) {
	f := func(data []byte) bool {
		g := quickGraph(data, 9)
		sum := 0
		for v := 0; v < g.N(); v++ {
			sum += g.Degree(v)
		}
		return sum == 2*g.M()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// Property: a graph always embeds into any supergraph of itself
// (add edges to a copy, the original must remain a subgraph), and the
// pigeonhole certificate never fires for such pairs.
func TestQuickSubgraphMonotone(t *testing.T) {
	f := func(data []byte, extra []byte) bool {
		g := quickGraph(data, 7)
		super := g.Clone()
		for i := 0; i+1 < len(extra) && i < 8; i += 2 {
			u := int(extra[i]) % 7
			v := int(extra[i+1]) % 7
			if u != v && !super.HasEdge(u, v) {
				if err := super.AddEdge(u, v); err != nil {
					panic(err)
				}
			}
		}
		if EmbeddingBlocked(g, super) {
			return false
		}
		_, ok, trunc := SubgraphIsomorphism(g, super, 500_000)
		return ok || trunc
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
