package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func mustGraph(t *testing.T, n int, edges [][2]int) *Graph {
	t.Helper()
	g := New(n)
	for _, e := range edges {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatalf("AddEdge(%d,%d): %v", e[0], e[1], err)
		}
	}
	return g
}

func path(n int) *Graph {
	g := New(n)
	for i := 0; i+1 < n; i++ {
		if err := g.AddEdge(i, i+1); err != nil {
			panic(err)
		}
	}
	return g
}

func cycle(n int) *Graph {
	g := path(n)
	if err := g.AddEdge(n-1, 0); err != nil {
		panic(err)
	}
	return g
}

func complete(n int) *Graph {
	g := New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if err := g.AddEdge(i, j); err != nil {
				panic(err)
			}
		}
	}
	return g
}

func TestEdgeNormalizeAndOther(t *testing.T) {
	e := Edge{5, 2}.Normalize()
	if e.U != 2 || e.V != 5 {
		t.Fatalf("Normalize: got %v", e)
	}
}

func TestAddEdgeErrors(t *testing.T) {
	g := New(3)
	if err := g.AddEdge(0, 0); err == nil {
		t.Error("self-loop accepted")
	}
	if err := g.AddEdge(0, 3); err == nil {
		t.Error("out-of-range accepted")
	}
	if err := g.AddEdge(-1, 0); err == nil {
		t.Error("negative vertex accepted")
	}
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatalf("valid edge rejected: %v", err)
	}
	if err := g.AddEdge(1, 0); err == nil {
		t.Error("duplicate (reversed) edge accepted")
	}
}

func TestDegreesAndNeighbors(t *testing.T) {
	g := mustGraph(t, 5, [][2]int{{0, 1}, {0, 2}, {0, 3}, {3, 4}})
	if g.Degree(0) != 3 {
		t.Errorf("Degree(0)=%d want 3", g.Degree(0))
	}
	if g.Degree(4) != 1 {
		t.Errorf("Degree(4)=%d want 1", g.Degree(4))
	}
	if g.MaxDegree() != 3 {
		t.Errorf("MaxDegree=%d want 3", g.MaxDegree())
	}
	if len(g.Neighbors(0)) != 3 {
		t.Errorf("Neighbors(0)=%v", g.Neighbors(0))
	}
	ds := g.DegreeSequence()
	want := []int{3, 2, 1, 1, 1}
	for i := range want {
		if ds[i] != want[i] {
			t.Fatalf("DegreeSequence=%v want %v", ds, want)
		}
	}
}

func TestBFSDistancesOnPath(t *testing.T) {
	g := path(6)
	d := g.BFSFrom(0)
	for i := 0; i < 6; i++ {
		if d[i] != i {
			t.Errorf("dist[%d]=%d want %d", i, d[i], i)
		}
	}
}

func TestBFSMultiSource(t *testing.T) {
	g := path(7)
	d := g.BFSFrom(0, 6)
	want := []int{0, 1, 2, 3, 2, 1, 0}
	for i := range want {
		if d[i] != want[i] {
			t.Errorf("dist[%d]=%d want %d", i, d[i], want[i])
		}
	}
}

func TestBFSUnreachable(t *testing.T) {
	g := mustGraph(t, 4, [][2]int{{0, 1}})
	d := g.BFSFrom(0)
	if d[2] != -1 || d[3] != -1 {
		t.Errorf("unreachable distances: %v", d)
	}
}

func TestDistanceMatrixSymmetric(t *testing.T) {
	g := cycle(8)
	d := NewDistanceMatrix(g)
	if d.N() != 8 {
		t.Fatalf("matrix covers %d vertices want 8", d.N())
	}
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			if d.At(i, j) != d.At(j, i) {
				t.Fatalf("asymmetric distance d[%d][%d]=%d d[%d][%d]=%d", i, j, d.At(i, j), j, i, d.At(j, i))
			}
		}
	}
	if d.At(0, 4) != 4 {
		t.Errorf("antipodal distance on C8: %d want 4", d.At(0, 4))
	}
}

func TestDistanceMatrixMatchesBFS(t *testing.T) {
	g := mustGraph(t, 7, [][2]int{{0, 1}, {1, 2}, {2, 3}, {0, 4}, {4, 5}}) // vertex 6 isolated
	d := NewDistanceMatrix(g)
	for v := 0; v < g.N(); v++ {
		bfs := g.BFSFrom(v)
		row := d.Row(v)
		for w, want := range bfs {
			if int(row[w]) != want {
				t.Fatalf("d[%d][%d]=%d, BFS says %d", v, w, row[w], want)
			}
		}
	}
}

func TestConnectedAndComponents(t *testing.T) {
	g := mustGraph(t, 5, [][2]int{{0, 1}, {2, 3}})
	if g.Connected() {
		t.Error("disconnected graph reported connected")
	}
	if !path(5).Connected() {
		t.Error("path reported disconnected")
	}
	if !New(1).Connected() || !New(0).Connected() {
		t.Error("trivial graphs should be connected")
	}
}

func TestClone(t *testing.T) {
	g := cycle(5)
	c := g.Clone()
	if err := c.AddEdge(0, 2); err != nil {
		t.Fatal(err)
	}
	if g.HasEdge(0, 2) {
		t.Error("Clone shares state with original")
	}
	if c.M() != g.M()+1 {
		t.Errorf("clone M=%d want %d", c.M(), g.M()+1)
	}
}

func TestNeighborEdgeIDsParallelNeighbors(t *testing.T) {
	// Edges inserted in both endpoint orders and out of vertex order, so
	// adjacency positions differ from sorted order.
	g := mustGraph(t, 6, [][2]int{{3, 1}, {0, 5}, {1, 0}, {4, 3}, {2, 1}, {5, 4}, {0, 3}})
	for _, h := range []*Graph{g, complete(5), path(7)} {
		ids := h.NeighborEdgeIDs()
		edges := h.Edges()
		seen := make([]int, len(edges))
		for v := 0; v < h.N(); v++ {
			if len(ids[v]) != h.Degree(v) {
				t.Fatalf("vertex %d: %d ids for degree %d", v, len(ids[v]), h.Degree(v))
			}
			for j, u := range h.Neighbors(v) {
				id := ids[v][j]
				if want := (Edge{U: v, V: u}).Normalize(); edges[id] != want {
					t.Fatalf("ids[%d][%d]=%d names %v, want %v", v, j, id, edges[id], want)
				}
				seen[id]++
			}
		}
		for id, n := range seen {
			if n != 2 {
				t.Fatalf("edge %d listed %d times, want 2 (once per endpoint)", id, n)
			}
		}
	}
}

// --- VF2 ---

func TestVF2PathIntoCycle(t *testing.T) {
	m, ok, trunc := SubgraphIsomorphism(path(4), cycle(6), 0)
	if !ok || trunc {
		t.Fatalf("P4 should embed into C6 (ok=%v trunc=%v)", ok, trunc)
	}
	checkWitness(t, path(4), cycle(6), m)
}

func TestVF2CycleIntoPathFails(t *testing.T) {
	if _, ok, _ := SubgraphIsomorphism(cycle(4), path(6), 0); ok {
		t.Fatal("C4 must not embed into P6")
	}
}

func TestVF2StarDegreeBound(t *testing.T) {
	// K1,4 needs a degree-4 vertex; C6 has max degree 2.
	star := mustGraph(t, 5, [][2]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}})
	if _, ok, _ := SubgraphIsomorphism(star, cycle(6), 0); ok {
		t.Fatal("K1,4 must not embed into C6")
	}
}

func TestVF2SelfEmbedding(t *testing.T) {
	g := complete(4)
	m, ok, _ := SubgraphIsomorphism(g, g, 0)
	if !ok {
		t.Fatal("graph should embed into itself")
	}
	checkWitness(t, g, g, m)
}

func TestVF2IsolatedPatternVertices(t *testing.T) {
	// Pattern: one edge plus two isolated vertices; target: path(4).
	p := mustGraph(t, 4, [][2]int{{2, 3}})
	m, ok, _ := SubgraphIsomorphism(p, path(4), 0)
	if !ok {
		t.Fatal("pattern with isolated vertices should embed")
	}
	checkWitness(t, p, path(4), m)
}

func TestVF2TooManyVertices(t *testing.T) {
	if _, ok, _ := SubgraphIsomorphism(path(5), path(4), 0); ok {
		t.Fatal("larger pattern cannot embed")
	}
}

func TestVF2NodeBudgetTruncation(t *testing.T) {
	// A hard-ish instance with a tiny budget should report truncation
	// rather than claiming non-embeddability. C12 into C12 with budget 1.
	_, ok, trunc := SubgraphIsomorphism(cycle(12), cycle(12), 1)
	if ok {
		t.Skip("solved within one node; nothing to assert")
	}
	if !trunc {
		t.Fatal("budget exhaustion not reported")
	}
}

func checkWitness(t *testing.T, p, g *Graph, m []int) {
	t.Helper()
	seen := map[int]bool{}
	for pv, tv := range m {
		if tv < 0 || tv >= g.N() {
			t.Fatalf("witness maps %d to out-of-range %d", pv, tv)
		}
		if seen[tv] {
			t.Fatalf("witness not injective at target %d", tv)
		}
		seen[tv] = true
	}
	for _, e := range p.Edges() {
		if !g.HasEdge(m[e.U], m[e.V]) {
			t.Fatalf("witness drops edge %v -> (%d,%d)", e, m[e.U], m[e.V])
		}
	}
}

// Property: a random subset of a random graph's edges always embeds back
// into the graph (identity witness exists), and VF2 finds some witness.
func TestVF2PropertySubsetEmbeds(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 60; iter++ {
		n := 5 + rng.Intn(6)
		g := New(n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.4 {
					if err := g.AddEdge(i, j); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		var sub []Edge
		for _, e := range g.Edges() {
			if rng.Float64() < 0.5 {
				sub = append(sub, e)
			}
		}
		p := New(n)
		for _, e := range sub {
			if err := p.AddEdge(e.U, e.V); err != nil {
				t.Fatal(err)
			}
		}
		m, ok, trunc := SubgraphIsomorphism(p, g, 200000)
		if trunc {
			continue
		}
		if !ok {
			t.Fatalf("iter %d: edge-subset pattern failed to embed (n=%d, |sub|=%d)", iter, n, len(sub))
		}
		checkWitness(t, p, g, m)
	}
}

// Property: EmbeddingBlocked is sound — whenever it fires, VF2 agrees there
// is no embedding.
func TestEmbeddingBlockedSound(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 80; iter++ {
		n := 4 + rng.Intn(5)
		mk := func() *Graph {
			g := New(n)
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					if rng.Float64() < 0.45 {
						if err := g.AddEdge(i, j); err != nil {
							panic(err)
						}
					}
				}
			}
			return g
		}
		p, g := mk(), mk()
		if EmbeddingBlocked(p, g) {
			if _, ok, trunc := SubgraphIsomorphism(p, g, 500000); ok && !trunc {
				t.Fatalf("iter %d: certificate fired but embedding exists", iter)
			}
		}
	}
}

func TestEmbeddingBlockedStarCase(t *testing.T) {
	// Degree-5 hub cannot embed into a max-degree-4 target.
	star := New(6)
	for i := 1; i < 6; i++ {
		if err := star.AddEdge(0, i); err != nil {
			t.Fatal(err)
		}
	}
	target := complete(5) // max degree 4
	if !EmbeddingBlocked(star, target) {
		t.Fatal("certificate missed max-degree violation")
	}
}

// --- union-find ---

func TestUnionFindBasics(t *testing.T) {
	uf := NewUnionFind(6)
	if uf.Sets() != 6 {
		t.Fatalf("Sets=%d want 6", uf.Sets())
	}
	if !uf.Union(0, 1) || !uf.Union(2, 3) || !uf.Union(1, 2) {
		t.Fatal("fresh unions reported no-op")
	}
	if uf.Union(0, 3) {
		t.Fatal("redundant union reported as merge")
	}
	if !uf.Same(0, 3) || uf.Same(0, 4) {
		t.Fatal("Same incorrect")
	}
	if uf.Sets() != 3 {
		t.Fatalf("Sets=%d want 3", uf.Sets())
	}
}

func TestUnionFindQuickProperty(t *testing.T) {
	// Union-find agrees with a naive component labelling under random unions.
	f := func(ops []uint8) bool {
		const n = 12
		uf := NewUnionFind(n)
		label := make([]int, n)
		for i := range label {
			label[i] = i
		}
		relabel := func(from, to int) {
			for i := range label {
				if label[i] == from {
					label[i] = to
				}
			}
		}
		for i := 0; i+1 < len(ops); i += 2 {
			a, b := int(ops[i])%n, int(ops[i+1])%n
			uf.Union(a, b)
			if label[a] != label[b] {
				relabel(label[a], label[b])
			}
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if (label[i] == label[j]) != uf.Same(i, j) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
