package sat

import (
	"context"
	"math/rand"
	"testing"
	"time"
)

func newVars(s *Solver, n int) []Lit {
	out := make([]Lit, n)
	for i := range out {
		out[i] = Lit(s.NewVar())
	}
	return out
}

func TestTrivialSat(t *testing.T) {
	s := NewSolver()
	v := newVars(s, 2)
	mustAdd(t, s, v[0])
	mustAdd(t, s, v[0].Neg(), v[1])
	if s.Solve(context.Background()) != Sat {
		t.Fatal("expected SAT")
	}
	if !s.Value(1) || !s.Value(2) {
		t.Errorf("model: v1=%v v2=%v, want both true", s.Value(1), s.Value(2))
	}
}

func TestTrivialUnsat(t *testing.T) {
	s := NewSolver()
	v := newVars(s, 1)
	mustAdd(t, s, v[0])
	if err := s.AddClause(v[0].Neg()); err == nil {
		// Depending on propagation timing the error may surface at Solve.
		if s.Solve(context.Background()) != Unsat {
			t.Fatal("expected UNSAT")
		}
		return
	}
	if s.Solve(context.Background()) != Unsat {
		t.Fatal("expected UNSAT after conflicting units")
	}
}

func TestEmptyClauseUnsat(t *testing.T) {
	s := NewSolver()
	if err := s.AddClause(); err != nil {
		t.Errorf("empty clause should be absorbed, got error %v", err)
	}
	if s.Solve(context.Background()) != Unsat {
		t.Fatal("expected UNSAT")
	}
}

func TestEmptyFormulaSat(t *testing.T) {
	s := NewSolver()
	newVars(s, 3)
	if s.Solve(context.Background()) != Sat {
		t.Fatal("empty formula should be SAT")
	}
}

func TestTautologyDropped(t *testing.T) {
	s := NewSolver()
	v := newVars(s, 1)
	mustAdd(t, s, v[0], v[0].Neg())
	if s.Solve(context.Background()) != Sat {
		t.Fatal("tautology-only formula should be SAT")
	}
}

func TestDuplicateLiteralsMerged(t *testing.T) {
	s := NewSolver()
	v := newVars(s, 2)
	mustAdd(t, s, v[0], v[0], v[1])
	mustAdd(t, s, v[0].Neg())
	mustAdd(t, s, v[1].Neg(), v[0])
	if s.Solve(context.Background()) != Unsat {
		t.Fatal("expected UNSAT")
	}
}

func TestUnallocatedVariableRejected(t *testing.T) {
	s := NewSolver()
	if err := s.AddClause(Lit(5)); err == nil {
		t.Fatal("unallocated variable accepted")
	}
	// Neither a tautology nor an already-UNSAT formula may hide one.
	s.NewVar()
	if err := s.AddClause(1, -1, 5); err == nil {
		t.Fatal("unallocated variable accepted inside a tautology")
	}
	mustAdd(t, s, 1)
	mustAdd(t, s, -1)
	if err := s.AddClause(5); err == nil {
		t.Fatal("unallocated variable accepted after UNSAT")
	}
}

// Classic pigeonhole: n+1 pigeons into n holes is UNSAT. Small n keeps
// the resolution blowup manageable.
func pigeonhole(n int) *Solver {
	s := NewSolver()
	// p[i][j]: pigeon i in hole j
	p := make([][]Lit, n+1)
	for i := range p {
		p[i] = newVars(s, n)
	}
	for i := 0; i <= n; i++ {
		if err := s.AddClause(p[i]...); err != nil {
			panic(err)
		}
	}
	for j := 0; j < n; j++ {
		for i := 0; i <= n; i++ {
			for k := i + 1; k <= n; k++ {
				if err := s.AddClause(p[i][j].Neg(), p[k][j].Neg()); err != nil {
					panic(err)
				}
			}
		}
	}
	return s
}

func TestPigeonholeUnsat(t *testing.T) {
	for n := 2; n <= 6; n++ {
		s := pigeonhole(n)
		if got := s.Solve(context.Background()); got != Unsat {
			t.Fatalf("PHP(%d): got %v want UNSAT", n, got)
		}
	}
}

// TestPigeonholeSearchPinned pins the whole search on PHP(3)–PHP(7):
// the counters are exact for a given solver, so any change to
// propagation order, conflict analysis, branching or restarts moves
// them. PHP(7) runs reduceDB and garbageCollect once each.
func TestPigeonholeSearchPinned(t *testing.T) {
	want := map[int]Stats{
		3: {Conflicts: 7, Decisions: 7, Propagations: 54, Restarts: 0, Learned: 6},
		4: {Conflicts: 28, Decisions: 31, Propagations: 277, Restarts: 0, Learned: 27},
		5: {Conflicts: 155, Decisions: 201, Propagations: 1788, Restarts: 1, Learned: 154},
		6: {Conflicts: 716, Decisions: 871, Propagations: 9405, Restarts: 5, Learned: 715},
		7: {Conflicts: 4538, Decisions: 5574, Propagations: 57686, Restarts: 23, Learned: 4537},
	}
	for n := 3; n <= 7; n++ {
		s := pigeonhole(n)
		if got := s.Solve(context.Background()); got != Unsat {
			t.Fatalf("PHP(%d): got %v want UNSAT", n, got)
		}
		if got := s.Stats(); got != want[n] {
			t.Errorf("PHP(%d) stats %+v, want %+v", n, got, want[n])
		}
	}
}

func TestPigeonholeExactFitSat(t *testing.T) {
	// n pigeons into n holes is SAT.
	s := NewSolver()
	n := 5
	p := make([][]Lit, n)
	for i := range p {
		p[i] = newVars(s, n)
	}
	for i := 0; i < n; i++ {
		mustAdd(t, s, p[i]...)
	}
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			for k := i + 1; k < n; k++ {
				mustAdd(t, s, p[i][j].Neg(), p[k][j].Neg())
			}
		}
	}
	if s.Solve(context.Background()) != Sat {
		t.Fatal("exact-fit pigeonhole should be SAT")
	}
	// Verify the model is a valid assignment.
	for i := 0; i < n; i++ {
		found := false
		for j := 0; j < n; j++ {
			if s.Value(int(p[i][j])) {
				found = true
			}
		}
		if !found {
			t.Fatalf("pigeon %d unplaced in model", i)
		}
	}
}

func TestGraphColoring(t *testing.T) {
	// C5 is 3-colorable but not 2-colorable.
	edges := [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}}
	color := func(k int) Status {
		s := NewSolver()
		v := make([][]Lit, 5)
		for i := range v {
			v[i] = newVars(s, k)
			if err := s.AddClause(v[i]...); err != nil {
				return Unsat
			}
			if err := AddAtMostOne(s, v[i]); err != nil {
				return Unsat
			}
		}
		for _, e := range edges {
			for c := 0; c < k; c++ {
				if err := s.AddClause(v[e[0]][c].Neg(), v[e[1]][c].Neg()); err != nil {
					return Unsat
				}
			}
		}
		return s.Solve(context.Background())
	}
	if color(2) != Unsat {
		t.Error("C5 should not be 2-colorable")
	}
	if color(3) != Sat {
		t.Error("C5 should be 3-colorable")
	}
}

func TestSolveAssuming(t *testing.T) {
	s := NewSolver()
	v := newVars(s, 3)
	mustAdd(t, s, v[0].Neg(), v[1])
	mustAdd(t, s, v[1].Neg(), v[2])
	if s.Solve(context.Background(), v[0], v[2].Neg()) != Unsat {
		t.Fatal("assumptions force a contradiction")
	}
	// The base formula must remain satisfiable.
	if s.Solve(context.Background(), v[0]) != Sat {
		t.Fatal("formula should be SAT under {v0}")
	}
	if !s.Value(3) {
		t.Error("v0 assumption should force v2")
	}
	if s.Solve(context.Background()) != Sat {
		t.Fatal("formula should be SAT with no assumptions")
	}
}

func TestIncrementalAddAfterSolve(t *testing.T) {
	s := NewSolver()
	v := newVars(s, 2)
	mustAdd(t, s, v[0], v[1])
	if s.Solve(context.Background()) != Sat {
		t.Fatal("SAT expected")
	}
	mustAdd(t, s, v[0].Neg())
	mustAdd(t, s, v[1].Neg())
	if s.Solve(context.Background()) != Unsat {
		t.Fatal("UNSAT expected after strengthening")
	}
	// Once UNSAT, always UNSAT.
	if s.Solve(context.Background()) != Unsat {
		t.Fatal("UNSAT must persist")
	}
}

func TestBudgetReturnsUnknown(t *testing.T) {
	s := pigeonhole(7)
	s.Budget = 5
	if got := s.Solve(context.Background()); got != Unknown {
		t.Skipf("solver finished PHP(7) within 5 conflicts: %v", got)
	}
}

// brute checks satisfiability of a CNF over n vars by enumeration.
func brute(n int, cnf [][]Lit) bool {
	for mask := 0; mask < 1<<uint(n); mask++ {
		ok := true
		for _, cl := range cnf {
			sat := false
			for _, l := range cl {
				v := l.Var() - 1
				val := mask&(1<<uint(v)) != 0
				if val == l.Sign() {
					sat = true
					break
				}
			}
			if !sat {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// Property test: CDCL agrees with brute force on random small CNFs, and
// SAT models actually satisfy the formula.
func TestRandomCNFAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for iter := 0; iter < 300; iter++ {
		n := 3 + rng.Intn(10) // 3..12 vars
		m := 3 + rng.Intn(40)
		var cnf [][]Lit
		s := NewSolver()
		newVars(s, n)
		for c := 0; c < m; c++ {
			k := 1 + rng.Intn(3)
			cl := make([]Lit, 0, k)
			for i := 0; i < k; i++ {
				v := 1 + rng.Intn(n)
				l := Lit(v)
				if rng.Intn(2) == 0 {
					l = -l
				}
				cl = append(cl, l)
			}
			cnf = append(cnf, cl)
			_ = s.AddClause(cl...) // error only for empty clause; cl is nonempty
		}
		want := brute(n, cnf)
		got := s.Solve(context.Background())
		if (got == Sat) != want {
			t.Fatalf("iter %d: solver=%v brute=%v (n=%d m=%d cnf=%v)", iter, got, want, n, m, cnf)
		}
		if got == Sat {
			for _, cl := range cnf {
				ok := false
				for _, l := range cl {
					if s.Value(l.Var()) == l.Sign() {
						ok = true
						break
					}
				}
				if !ok {
					t.Fatalf("iter %d: model does not satisfy clause %v", iter, cl)
				}
			}
		}
	}
}

// Property test: assumptions behave like added unit clauses.
func TestAssumptionsMatchUnits(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for iter := 0; iter < 100; iter++ {
		n := 4 + rng.Intn(5)
		m := 5 + rng.Intn(20)
		var cnf [][]Lit
		for c := 0; c < m; c++ {
			k := 1 + rng.Intn(3)
			cl := make([]Lit, 0, k)
			for i := 0; i < k; i++ {
				v := 1 + rng.Intn(n)
				l := Lit(v)
				if rng.Intn(2) == 0 {
					l = -l
				}
				cl = append(cl, l)
			}
			cnf = append(cnf, cl)
		}
		var asm []Lit
		for v := 1; v <= 2; v++ {
			l := Lit(1 + rng.Intn(n))
			if rng.Intn(2) == 0 {
				l = -l
			}
			asm = append(asm, l)
		}

		s1 := NewSolver()
		newVars(s1, n)
		for _, cl := range cnf {
			_ = s1.AddClause(cl...)
		}
		got := s1.Solve(context.Background(), asm...)

		s2 := NewSolver()
		newVars(s2, n)
		for _, cl := range cnf {
			_ = s2.AddClause(cl...)
		}
		for _, a := range asm {
			_ = s2.AddClause(a)
		}
		want := s2.Solve(context.Background())
		if got != want {
			t.Fatalf("iter %d: assuming=%v units=%v (asm=%v)", iter, got, want, asm)
		}
	}
}

// Property test: on one persistent solver, Solve's verdicts are a
// pure function of the assumption set — independent of the order in which
// the sets are queried and of whatever was learned by earlier queries.
func TestSolveAssumingOrderIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	randLit := func(n int) Lit {
		l := Lit(1 + rng.Intn(n))
		if rng.Intn(2) == 0 {
			l = -l
		}
		return l
	}
	for iter := 0; iter < 40; iter++ {
		n := 5 + rng.Intn(6)
		m := 8 + rng.Intn(25)
		var cnf [][]Lit
		for c := 0; c < m; c++ {
			k := 1 + rng.Intn(3)
			cl := make([]Lit, 0, k)
			for i := 0; i < k; i++ {
				cl = append(cl, randLit(n))
			}
			cnf = append(cnf, cl)
		}
		mk := func() *Solver {
			s := NewSolver()
			newVars(s, n)
			for _, cl := range cnf {
				_ = s.AddClause(cl...)
			}
			return s
		}
		// Several assumption sets over the same formula.
		sets := make([][]Lit, 4)
		for i := range sets {
			for j := 0; j < 1+rng.Intn(2); j++ {
				sets[i] = append(sets[i], randLit(n))
			}
		}
		// Reference verdict per set: a fresh solver each.
		want := make([]Status, len(sets))
		for i, asm := range sets {
			want[i] = mk().Solve(context.Background(), asm...)
		}
		// One persistent solver queried in several different orders.
		orders := [][]int{{0, 1, 2, 3}, {3, 2, 1, 0}, {2, 0, 3, 1}, {1, 3, 0, 2}}
		for _, ord := range orders {
			s := mk()
			for _, i := range ord {
				if got := s.Solve(context.Background(), sets[i]...); got != want[i] {
					t.Fatalf("iter %d order %v: set %d got %v want %v (asm=%v)",
						iter, ord, i, got, want[i], sets[i])
				}
			}
			// Re-query every set on the now clause-rich solver.
			for i, asm := range sets {
				if got := s.Solve(context.Background(), asm...); got != want[i] {
					t.Fatalf("iter %d re-query: set %d got %v want %v", iter, i, got, want[i])
				}
			}
		}
	}
}

// Regression: the VSIDS order heap must never accumulate duplicate
// entries when backtracking re-inserts variables; the position index
// makes pushIfAbsent a real membership check.
func TestVarHeapNoDuplicates(t *testing.T) {
	s := NewSolver()
	newVars(s, 20)
	h := &s.order
	// All 20 variables are queued by NewVar. Re-pushing queued variables
	// must be a no-op.
	for v := 1; v <= 20; v++ {
		h.pushIfAbsent(v)
		h.pushIfAbsent(v)
	}
	if len(h.heap) != 20 {
		t.Fatalf("heap size %d after duplicate pushes, want 20", len(h.heap))
	}
	// Pop half, re-push everything (as backtracking does), and check each
	// variable appears exactly once.
	for i := 0; i < 10; i++ {
		v := h.pop()
		if h.inHeap(v) {
			t.Fatalf("popped var %d still reported in heap", v)
		}
	}
	for v := 1; v <= 20; v++ {
		h.pushIfAbsent(v)
		h.pushIfAbsent(v)
	}
	if len(h.heap) != 20 {
		t.Fatalf("heap size %d after re-insertion, want 20", len(h.heap))
	}
	count := map[int]int{}
	for {
		v := h.pop()
		if v == 0 {
			break
		}
		count[v]++
	}
	for v := 1; v <= 20; v++ {
		if count[v] != 1 {
			t.Fatalf("variable %d appeared %d times in heap, want 1", v, count[v])
		}
	}
	// End-to-end: a solve with heavy backtracking keeps the invariant.
	s2 := pigeonhole(5)
	if s2.Solve(context.Background()) != Unsat {
		t.Fatal("PHP(5) should be UNSAT")
	}
	seen := map[int]bool{}
	for _, v := range s2.order.heap {
		if seen[int(v)] {
			t.Fatalf("duplicate variable %d in order heap after solve", v)
		}
		seen[int(v)] = true
	}
	for v := 1; v <= s2.nVars; v++ {
		if p := s2.order.pos[v]; p >= 0 && s2.order.heap[p] != int32(v) {
			t.Fatalf("position index out of sync for var %d", v)
		}
	}
}

// --- cardinality encodings ---

func countSolutions(n int, build func(*Solver, []Lit) error) int {
	// Enumerate all assignments over the n "payload" vars by assumption.
	count := 0
	for mask := 0; mask < 1<<uint(n); mask++ {
		s := NewSolver()
		lits := newVars(s, n)
		if err := build(s, lits); err != nil {
			continue
		}
		asm := make([]Lit, n)
		for i := range lits {
			asm[i] = lits[i]
			if mask&(1<<uint(i)) == 0 {
				asm[i] = lits[i].Neg()
			}
		}
		if s.Solve(context.Background(), asm...) == Sat {
			count++
		}
	}
	return count
}

func TestAtMostOnePairwise(t *testing.T) {
	got := countSolutions(5, func(s *Solver, l []Lit) error { return AddAtMostOnePairwise(s, l) })
	if got != 6 { // zero-or-one of five: 1 + 5
		t.Fatalf("AMO pairwise solutions=%d want 6", got)
	}
}

func TestAtMostOneSeq(t *testing.T) {
	got := countSolutions(7, func(s *Solver, l []Lit) error { return AddAtMostOneSeq(s, l) })
	if got != 8 {
		t.Fatalf("AMO seq solutions=%d want 8", got)
	}
}

func TestIffAndOr(t *testing.T) {
	s := NewSolver()
	v := newVars(s, 4)
	y := Lit(s.NewVar())
	z := Lit(s.NewVar())
	if err := AddIffAnd(s, y, v[0], v[1]); err != nil {
		t.Fatal(err)
	}
	if err := AddIffOr(s, z, []Lit{v[2], v[3]}); err != nil {
		t.Fatal(err)
	}
	// y true forces v0, v1 true.
	if s.Solve(context.Background(), y, v[0].Neg()) != Unsat {
		t.Error("y & !v0 should be UNSAT")
	}
	// z false forces both v2, v3 false.
	if s.Solve(context.Background(), z.Neg(), v[2]) != Unsat {
		t.Error("!z & v2 should be UNSAT")
	}
	if s.Solve(context.Background(), y, z.Neg()) != Sat {
		t.Error("y & !z should be SAT")
	}
}

func TestIff(t *testing.T) {
	s := NewSolver()
	v := newVars(s, 2)
	if err := AddIff(s, v[0], v[1]); err != nil {
		t.Fatal(err)
	}
	if s.Solve(context.Background(), v[0], v[1].Neg()) != Unsat {
		t.Error("iff violated")
	}
	if s.Solve(context.Background(), v[0].Neg(), v[1].Neg()) != Sat {
		t.Error("both-false should satisfy iff")
	}
}

func TestLuby(t *testing.T) {
	want := []int64{1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8}
	for i, w := range want {
		if got := luby(int64(i + 1)); got != w {
			t.Fatalf("luby(%d)=%d want %d", i+1, got, w)
		}
	}
}

func TestStatsAccumulate(t *testing.T) {
	s := pigeonhole(5)
	s.Solve(context.Background())
	st := s.Stats()
	if st.Conflicts == 0 || st.Decisions == 0 || st.Propagations == 0 {
		t.Errorf("stats look dead: %+v", st)
	}
	if st.Learned == 0 {
		t.Errorf("pigeonhole solve learned no clauses: %+v", st)
	}
}

func mustAdd(t *testing.T, s *Solver, lits ...Lit) {
	t.Helper()
	if err := s.AddClause(lits...); err != nil {
		t.Fatalf("AddClause(%v): %v", lits, err)
	}
}

func TestSolveCtxCancelledBeforeStart(t *testing.T) {
	s := pigeonhole(6)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if got := s.Solve(ctx); got != Unknown {
		t.Fatalf("dead-context solve returned %v, want Unknown", got)
	}
	// The solver must still be usable with a live context.
	if got := s.Solve(context.Background()); got != Unsat {
		t.Fatalf("post-cancel solve returned %v, want Unsat", got)
	}
}

func TestSolveCtxCancelledMidSearch(t *testing.T) {
	s := pigeonhole(8)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	got := s.Solve(ctx)
	elapsed := time.Since(start)
	if got == Unsat {
		t.Skipf("solver finished PHP(8) within the deadline (%v)", elapsed)
	}
	if got != Unknown {
		t.Fatalf("cancelled solve returned %v, want Unknown", got)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v; the conflict poll is not firing", elapsed)
	}
}

func TestSolveCtxBackgroundMatchesSolve(t *testing.T) {
	// A live context that is never cancelled takes the polling branch
	// (Done is non-nil) that every CLI and server solve takes; it must
	// not change the verdict or the search. PHP(7) runs past several
	// ctxCheckConflicts polls.
	for n := 3; n <= 7; n++ {
		ctx, cancel := context.WithCancel(context.Background())
		a := pigeonhole(n)
		b := pigeonhole(n)
		got, want := a.Solve(ctx), b.Solve(context.Background())
		cancel()
		if got != want {
			t.Fatalf("PHP(%d): live-context Solve=%v, background Solve=%v", n, got, want)
		}
		if ga, gb := a.Stats(), b.Stats(); ga != gb {
			t.Fatalf("PHP(%d): live-context stats %+v, background stats %+v", n, ga, gb)
		}
		if n == 7 && a.Stats().Conflicts < 2*ctxCheckConflicts {
			t.Fatalf("PHP(7) took %d conflicts; the poll fired fewer than twice", a.Stats().Conflicts)
		}
	}
}
