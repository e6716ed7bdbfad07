package tokenswap

import (
	"math/rand"
	"testing"

	"repro/internal/arch"
	"repro/internal/graph"
)

func applySwaps(at []int, swaps []Swap) []int {
	out := append([]int(nil), at...)
	for _, s := range swaps {
		out[s.U], out[s.V] = out[s.V], out[s.U]
	}
	return out
}

func checkSolved(t *testing.T, g *graph.Graph, tokenAt []int, swaps []Swap) {
	t.Helper()
	for _, s := range swaps {
		if !g.HasEdge(s.U, s.V) {
			t.Fatalf("swap %v is not an edge", s)
		}
	}
	final := applySwaps(tokenAt, swaps)
	for v, tok := range final {
		if tok != v {
			t.Fatalf("token %d ended at %d", tok, v)
		}
	}
}

func TestSolveIdentityIsFree(t *testing.T) {
	g := arch.Line(5).Graph()
	id := []int{0, 1, 2, 3, 4}
	swaps, err := SolveDist(g, graph.NewDistanceMatrix(g), id)
	if err != nil {
		t.Fatal(err)
	}
	if len(swaps) != 0 {
		t.Fatalf("identity needed %d swaps", len(swaps))
	}
}

func TestSolveAdjacentTransposition(t *testing.T) {
	g := arch.Line(4).Graph()
	at := []int{1, 0, 2, 3}
	swaps, err := SolveDist(g, graph.NewDistanceMatrix(g), at)
	if err != nil {
		t.Fatal(err)
	}
	checkSolved(t, g, at, swaps)
	if len(swaps) != 1 {
		t.Fatalf("adjacent transposition took %d swaps, want 1", len(swaps))
	}
}

func TestSolveReversalOnLine(t *testing.T) {
	g := arch.Line(5).Graph()
	at := []int{4, 3, 2, 1, 0}
	swaps, err := SolveDist(g, graph.NewDistanceMatrix(g), at)
	if err != nil {
		t.Fatal(err)
	}
	checkSolved(t, g, at, swaps)
	// Reversal on a path needs exactly n(n-1)/2 = 10 swaps; allow some
	// heuristic slack.
	if len(swaps) < 10 || len(swaps) > 14 {
		t.Errorf("reversal took %d swaps (optimal 10)", len(swaps))
	}
}

func TestSolveRejectsBadArrangements(t *testing.T) {
	g := arch.Line(3).Graph()
	d := graph.NewDistanceMatrix(g)
	if _, err := SolveDist(g, d, []int{0, 1}); err == nil {
		t.Error("short arrangement accepted")
	}
	if _, err := SolveDist(g, d, []int{0, 0, 1}); err == nil {
		t.Error("non-permutation accepted")
	}
	if _, err := SolveDist(g, d, []int{0, 1, 5}); err == nil {
		t.Error("out-of-range token accepted")
	}
}

func TestSolveRandomPermutations(t *testing.T) {
	devices := []*graph.Graph{
		arch.Line(8).Graph(),
		arch.Ring(9).Graph(),
		arch.Grid3x3().Graph(),
		arch.RigettiAspen4().Graph(),
		arch.IBMFalcon27().Graph(),
	}
	rng := rand.New(rand.NewSource(6))
	for iter := 0; iter < 60; iter++ {
		g := devices[iter%len(devices)]
		at := rng.Perm(g.N())
		d := graph.NewDistanceMatrix(g)
		swaps, err := SolveDist(g, d, at)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		checkSolved(t, g, at, swaps)
		lb := LowerBoundDist(d, at)
		if len(swaps) < lb {
			t.Fatalf("iter %d: %d swaps beats the lower bound %d", iter, len(swaps), lb)
		}
		// Sanity factor: the heuristic should stay within ~4x of the
		// lower bound on these small graphs.
		if lb > 0 && len(swaps) > 4*lb+4 {
			t.Errorf("iter %d: %d swaps vs lower bound %d — heuristic degraded", iter, len(swaps), lb)
		}
	}
}

func TestTransitionBetweenMappings(t *testing.T) {
	g := arch.Grid3x3().Graph()
	d := graph.NewDistanceMatrix(g)
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 30; iter++ {
		from := rng.Perm(9)
		to := rng.Perm(9)
		swaps, err := TransitionDist(g, d, from, to)
		if err != nil {
			t.Fatal(err)
		}
		// Apply swaps to the "from" placement: item q at from[q]; a swap
		// (u,v) exchanges whatever items sit at u and v.
		pos := make([]int, 9) // vertex -> item (or -1)
		for i := range pos {
			pos[i] = -1
		}
		for q, v := range from {
			pos[v] = q
		}
		for _, s := range swaps {
			if !g.HasEdge(s.U, s.V) {
				t.Fatalf("swap %v not an edge", s)
			}
			pos[s.U], pos[s.V] = pos[s.V], pos[s.U]
		}
		for q, v := range to {
			if pos[v] != q {
				t.Fatalf("iter %d: item %d at wrong vertex", iter, q)
			}
		}
	}
}

func TestTransitionPartialOccupancy(t *testing.T) {
	// 3 items on a 5-vertex line: free vertices are don't-cares.
	g := arch.Line(5).Graph()
	from := []int{0, 1, 2}
	to := []int{2, 3, 4}
	swaps, err := TransitionDist(g, graph.NewDistanceMatrix(g), from, to)
	if err != nil {
		t.Fatal(err)
	}
	pos := []int{0, 1, 2, -1, -1}
	for _, s := range swaps {
		pos[s.U], pos[s.V] = pos[s.V], pos[s.U]
	}
	for q, v := range to {
		if pos[v] != q {
			t.Fatalf("item %d not at vertex %d: %v", q, v, pos)
		}
	}
}

func TestTransitionErrors(t *testing.T) {
	g := arch.Line(3).Graph()
	d := graph.NewDistanceMatrix(g)
	if _, err := TransitionDist(g, d, []int{0, 1}, []int{0}); err == nil {
		t.Error("size mismatch accepted")
	}
	if _, err := TransitionDist(g, d, []int{0, 0}, []int{1, 2}); err == nil {
		t.Error("duplicate source accepted")
	}
	if _, err := TransitionDist(g, d, []int{0, 1}, []int{2, 2}); err == nil {
		t.Error("duplicate destination accepted")
	}
	if _, err := TransitionDist(g, d, []int{0, 9}, []int{1, 2}); err == nil {
		t.Error("out-of-range accepted")
	}
}

func TestLowerBound(t *testing.T) {
	d := graph.NewDistanceMatrix(arch.Line(4).Graph())
	// Single token at distance 3: lower bound 3 (max), not ceil(3/2).
	at := []int{3, 1, 2, 0} // tokens 3<->0 swapped: both at distance 3
	if lb := LowerBoundDist(d, at); lb != 3 {
		t.Fatalf("lb=%d want 3", lb)
	}
	if lb := LowerBoundDist(d, []int{0, 1, 2, 3}); lb != 0 {
		t.Fatalf("identity lb=%d", lb)
	}
}
