package sat

import (
	"context"
	"testing"
)

// steadyStateSetup builds a moderately sized satisfiable formula and an
// assumption set, mimicking how the OLSQ pipeline drives one persistent
// solver through repeated Solve calls under assumptions: 3-coloring of a
// long cycle with a handful of implication chains, assumptions pinning
// the first vertex's color.
func steadyStateSetup(n int) (*Solver, []Lit) {
	s := NewSolver()
	v := make([][]Lit, n)
	for i := range v {
		v[i] = newVars(s, 3)
		if err := s.AddClause(v[i]...); err != nil {
			panic(err)
		}
		if err := AddAtMostOne(s, v[i]); err != nil {
			panic(err)
		}
	}
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		for c := 0; c < 3; c++ {
			if err := s.AddClause(v[i][c].Neg(), v[j][c].Neg()); err != nil {
				panic(err)
			}
		}
	}
	return s, []Lit{v[0][0], v[0][1].Neg()}
}

// The solve loop must not allocate once capacities are warm: propagation
// walks flat watch lists and the clause arena, conflict analysis reuses
// scratch buffers, and LBD marking is epoch-stamped. This is the
// acceptance gate for the flat rewrite — a map lookup or per-clause
// allocation sneaking back into the hot path shows up here as a nonzero
// allocation count.
func TestSolveAssumingSteadyStateZeroAllocs(t *testing.T) {
	s, asm := steadyStateSetup(120)
	for i := 0; i < 3; i++ { // warm up capacities, learn phases
		if s.Solve(context.Background(), asm...) != Sat {
			t.Fatal("formula should be SAT under assumptions")
		}
	}
	bad := false
	allocs := testing.AllocsPerRun(100, func() {
		if s.Solve(context.Background(), asm...) != Sat {
			bad = true
		}
	})
	if bad {
		t.Fatal("verdict changed during steady-state runs")
	}
	if allocs != 0 {
		t.Fatalf("steady-state Solve allocates %v allocs/op, want 0", allocs)
	}
}

// BenchmarkSolveAssumingSteadyState measures the warm solve loop; run
// with -benchmem and expect 0 B/op, 0 allocs/op.
func BenchmarkSolveAssumingSteadyState(b *testing.B) {
	s, asm := steadyStateSetup(120)
	for i := 0; i < 3; i++ {
		if s.Solve(context.Background(), asm...) != Sat {
			b.Fatal("formula should be SAT under assumptions")
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s.Solve(context.Background(), asm...) != Sat {
			b.Fatal("verdict changed")
		}
	}
}

// BenchmarkSolveIncrementalBounds mimics the OLSQ bound sweep at the SAT
// level: one persistent solver queried under a sequence of assumption
// sets versus a cold solver re-built per query.
func BenchmarkSolveIncrementalBounds(b *testing.B) {
	build := func() (*Solver, [][]Lit) {
		s := pigeonhole(6)
		gates := newVars(s, 4)
		var sets [][]Lit
		for _, g := range gates {
			sets = append(sets, []Lit{g})
			sets = append(sets, []Lit{g.Neg()})
		}
		return s, sets
	}
	_, querySets := build()
	b.Run("persistent", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s, _ := build()
			for _, asm := range querySets {
				if s.Solve(context.Background(), asm...) != Unsat {
					b.Fatal("PHP must stay UNSAT under any assumptions")
				}
			}
		}
	})
	b.Run("cold-per-query", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, asm := range querySets {
				s2, _ := build()
				if s2.Solve(context.Background(), asm...) != Unsat {
					b.Fatal("PHP must stay UNSAT under any assumptions")
				}
			}
		}
	})
}
