package olsq

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/router"
	"repro/internal/sat"
)

func mustSolver(t *testing.T, c *circuit.Circuit, dev *arch.Device) *Solver {
	t.Helper()
	s, err := New(c, dev, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// The paper's Figure 1 example: triangle interaction on a 4-qubit line
// needs exactly one SWAP.
func TestFigure1TriangleNeedsOneSwap(t *testing.T) {
	c := circuit.New(3)
	c.MustAppend(circuit.NewCX(0, 1), circuit.NewCX(1, 2), circuit.NewCX(0, 2))
	s := mustSolver(t, c, arch.Line(4))

	ok, _, err := s.DecideCtx(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("triangle should not embed in a line with 0 swaps")
	}
	ok, res, err := s.DecideCtx(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("triangle should be solvable with 1 swap")
	}
	if res.SwapCount != 1 {
		t.Errorf("SwapCount=%d want 1", res.SwapCount)
	}
	if err := router.Validate(c, arch.Line(4), &res.Result); err != nil {
		t.Fatalf("extracted result invalid: %v", err)
	}
}

func TestMinSwapsZeroForEmbeddable(t *testing.T) {
	// A path circuit on a line device embeds directly.
	c := circuit.New(4)
	c.MustAppend(circuit.NewCX(0, 1), circuit.NewCX(1, 2), circuit.NewCX(2, 3))
	s := mustSolver(t, c, arch.Line(4))
	res, err := s.MinSwapsCtx(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.SwapCount != 0 {
		t.Errorf("SwapCount=%d want 0", res.SwapCount)
	}
}

func TestMinSwapsRespectsDependencies(t *testing.T) {
	// Two sequential "triangles" on disjoint phases sharing qubits force
	// sequential execution; each needs a swap on a line.
	c := circuit.New(3)
	c.MustAppend(
		circuit.NewCX(0, 1), circuit.NewCX(1, 2), circuit.NewCX(0, 2),
		circuit.NewCX(0, 1), circuit.NewCX(1, 2), circuit.NewCX(0, 2),
	)
	s := mustSolver(t, c, arch.Line(4))
	res, err := s.MinSwapsCtx(context.Background(), 4)
	if err != nil {
		t.Fatal(err)
	}
	// The second triangle can often reuse the swapped layout, so 1 or 2.
	if res.SwapCount < 1 || res.SwapCount > 2 {
		t.Errorf("SwapCount=%d want 1..2", res.SwapCount)
	}
	if err := router.Validate(c, arch.Line(4), &res.Result); err != nil {
		t.Fatal(err)
	}
}

func TestSingleQubitGatesPreserved(t *testing.T) {
	c := circuit.New(3)
	c.MustAppend(
		circuit.NewH(0),
		circuit.NewCX(0, 1),
		circuit.NewRZ(1, 0.5),
		circuit.NewCX(1, 2),
		circuit.NewX(2),
		circuit.NewCX(0, 2),
		circuit.NewH(1),
	)
	dev := arch.Line(4)
	s := mustSolver(t, c, dev)
	res, err := s.MinSwapsCtx(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := router.Validate(c, dev, &res.Result); err != nil {
		t.Fatalf("result with 1q gates invalid: %v", err)
	}
	if res.Transpiled.NumGates()-res.SwapCount != c.NumGates() {
		t.Errorf("gate count mismatch: %d vs %d", res.Transpiled.NumGates()-res.SwapCount, c.NumGates())
	}
}

func TestDecideRejectsNegativeK(t *testing.T) {
	c := circuit.New(2)
	c.MustAppend(circuit.NewCX(0, 1))
	s := mustSolver(t, c, arch.Line(2))
	if _, _, err := s.DecideCtx(context.Background(), -1); err == nil {
		t.Fatal("negative k accepted")
	}
}

func TestNewRejectsSwapsInInput(t *testing.T) {
	c := circuit.New(2)
	c.MustAppend(circuit.NewSwap(0, 1))
	if _, err := New(c, arch.Line(2), Options{}); err == nil {
		t.Fatal("input with SWAP accepted")
	}
}

func TestNewRejectsTooManyQubits(t *testing.T) {
	c := circuit.New(5)
	if _, err := New(c, arch.Line(3), Options{}); err == nil {
		t.Fatal("oversized circuit accepted")
	}
}

func TestVerifyOptimal(t *testing.T) {
	c := circuit.New(3)
	c.MustAppend(circuit.NewCX(0, 1), circuit.NewCX(1, 2), circuit.NewCX(0, 2))
	s := mustSolver(t, c, arch.Line(4))
	if err := s.VerifyOptimalCtx(context.Background(), 1); err != nil {
		t.Fatalf("VerifyOptimal(1): %v", err)
	}
	if err := s.VerifyOptimalCtx(context.Background(), 0); err == nil {
		t.Fatal("VerifyOptimal(0) should fail (needs 1 swap)")
	}
	if err := s.VerifyOptimalCtx(context.Background(), 2); err == nil {
		t.Fatal("VerifyOptimal(2) should fail (1 swap suffices)")
	}
}

func TestStarCircuitOnGrid(t *testing.T) {
	// A degree-5 hub cannot exist on grid3x3 (max degree 4): K1,5 needs
	// at least one swap.
	c := circuit.New(6)
	for i := 1; i <= 5; i++ {
		c.MustAppend(circuit.NewCX(0, i))
	}
	dev := arch.Grid3x3()
	s := mustSolver(t, c, dev)
	res, err := s.MinSwapsCtx(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.SwapCount < 1 {
		t.Errorf("K1,5 on grid3x3 solved with %d swaps; must need >= 1", res.SwapCount)
	}
	if err := router.Validate(c, dev, &res.Result); err != nil {
		t.Fatal(err)
	}
}

func TestBudgetSurfacesAsError(t *testing.T) {
	// A deliberately hard instance with a tiny conflict budget.
	c := circuit.New(9)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 25; i++ {
		a, b := rng.Intn(9), rng.Intn(9)
		if a != b {
			c.MustAppend(circuit.NewCX(a, b))
		}
	}
	s, err := New(c, arch.Grid3x3(), Options{MaxConflicts: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.DecideCtx(context.Background(), 0); err == nil {
		t.Skip("instance solved within one conflict; nothing to assert")
	}
}

// Property: on random small circuits, the minimal swap count found by the
// SAT solver is achievable (witness validates) and k-1 is infeasible.
func TestMinSwapsIsExactOnRandomCircuits(t *testing.T) {
	if testing.Short() {
		t.Skip("exact search in -short mode")
	}
	rng := rand.New(rand.NewSource(99))
	devices := []*arch.Device{arch.Line(5), arch.Ring(6), arch.Grid3x3()}
	for iter := 0; iter < 12; iter++ {
		dev := devices[iter%len(devices)]
		nq := dev.NumQubits()
		c := circuit.New(nq)
		for i := 0; i < 8+rng.Intn(6); i++ {
			a, b := rng.Intn(nq), rng.Intn(nq)
			if a == b {
				continue
			}
			c.MustAppend(circuit.NewCX(a, b))
		}
		if c.NumGates() == 0 {
			continue
		}
		s := mustSolver(t, c, dev)
		res, err := s.MinSwapsCtx(context.Background(), 6)
		if err != nil {
			t.Fatalf("iter %d (%s): %v", iter, dev.Name(), err)
		}
		if err := router.Validate(c, dev, &res.Result); err != nil {
			t.Fatalf("iter %d: witness invalid: %v", iter, err)
		}
		if res.SwapCount > 0 {
			ok, _, err := s.DecideCtx(context.Background(), res.SwapCount-1)
			if err != nil {
				t.Fatal(err)
			}
			if ok {
				t.Fatalf("iter %d: k=%d claimed minimal but k-1 feasible", iter, res.SwapCount)
			}
		}
	}
}

// A circuit narrower than its device leaves physical qubits empty, and
// the encoding lets a SWAP move a program qubit onto one. On Ring-6 the
// first satisfiable bound of this 5-qubit circuit is 2, and its model
// does exactly that, so the extracted witness must route through an
// ancilla.
func TestNarrowCircuitSwapOntoEmptyQubit(t *testing.T) {
	c := circuit.New(5)
	for _, g := range [][2]int{{1, 3}, {1, 3}, {4, 0}, {1, 3}, {0, 1}, {0, 2}, {1, 4}, {3, 2}, {1, 3}, {1, 4}} {
		c.MustAppend(circuit.NewCX(g[0], g[1]))
	}
	dev := arch.Ring(6)
	s := mustSolver(t, c, dev)
	ok, res, err := s.DecideCtx(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("k=2 should be satisfiable")
	}
	if err := router.Validate(c, dev, &res.Result); err != nil {
		t.Fatalf("witness invalid: %v", err)
	}
	if len(res.InitialMapping) != dev.NumQubits() {
		t.Errorf("initial mapping covers %d qubits, want the device's %d", len(res.InitialMapping), dev.NumQubits())
	}
}

// Property: on random circuits narrower than their device, every bound
// up to the first satisfiable one decides without error and that bound's
// witness validates.
func TestMinSwapsOnNarrowCircuits(t *testing.T) {
	if testing.Short() {
		t.Skip("exact search in -short mode")
	}
	rng := rand.New(rand.NewSource(7))
	devices := []*arch.Device{arch.Line(5), arch.Ring(6), arch.Grid3x3()}
	for iter := 0; iter < 150; iter++ {
		dev := devices[iter%len(devices)]
		nq := 3 + rng.Intn(dev.NumQubits()-3)
		c := circuit.New(nq)
		for n := 4 + rng.Intn(8); c.NumGates() < n; {
			if a, b := rng.Intn(nq), rng.Intn(nq); a != b {
				c.MustAppend(circuit.NewCX(a, b))
			}
		}
		s := mustSolver(t, c, dev)
		res, err := s.MinSwapsCtx(context.Background(), 8)
		if err != nil {
			t.Fatalf("iter %d (%d qubits on %s): %v", iter, nq, dev.Name(), err)
		}
		if err := router.Validate(c, dev, &res.Result); err != nil {
			t.Fatalf("iter %d: witness invalid: %v", iter, err)
		}
	}
}

func TestBlockScheduleConsistent(t *testing.T) {
	c := circuit.New(3)
	c.MustAppend(circuit.NewCX(0, 1), circuit.NewCX(1, 2), circuit.NewCX(0, 2))
	s := mustSolver(t, c, arch.Line(4))
	ok, res, err := s.DecideCtx(context.Background(), 2)
	if err != nil || !ok {
		t.Fatalf("Decide(2): ok=%v err=%v", ok, err)
	}
	// Dependencies: node blocks must be non-decreasing along DAG edges.
	dag := circuit.NewDAG(c)
	for v := 0; v < dag.N(); v++ {
		for _, p := range dag.Preds[v] {
			if res.BlockOfGate[p] > res.BlockOfGate[v] {
				t.Fatalf("dependency inverted: pred block %d > succ block %d", res.BlockOfGate[p], res.BlockOfGate[v])
			}
		}
	}
	if len(res.SwapEdges) != 2 {
		t.Errorf("SwapEdges len=%d want 2", len(res.SwapEdges))
	}
}

// coldSolve decides the ≤k formula from scratch: export it as DIMACS,
// re-parse it, and solve it on a fresh solver that shares no state with
// the incremental engine.
func coldSolve(t *testing.T, s *Solver, k int) bool {
	t.Helper()
	var sb strings.Builder
	if err := s.ExportDIMACS(&sb, k); err != nil {
		t.Fatal(err)
	}
	f, err := sat.ParseDIMACS(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("k=%d: reparse: %v", k, err)
	}
	st, err := f.Solve()
	if err != nil {
		t.Fatalf("k=%d: %v", k, err)
	}
	return st == sat.Sat
}

// The incremental engine (one persistent solver, grown encoding,
// assumption-selected bounds) and a cold solve of each bound's exported
// formula must agree on every verdict and every minimal swap count.
func TestIncrementalMatchesPerKReencode(t *testing.T) {
	if testing.Short() {
		t.Skip("exact cross-check in -short mode")
	}
	rng := rand.New(rand.NewSource(17))
	devices := []*arch.Device{arch.Line(5), arch.Ring(6), arch.Grid3x3()}
	for iter := 0; iter < 8; iter++ {
		dev := devices[iter%len(devices)]
		nq := dev.NumQubits()
		c := circuit.New(nq)
		for i := 0; i < 6+rng.Intn(6); i++ {
			a, b := rng.Intn(nq), rng.Intn(nq)
			if a != b {
				c.MustAppend(circuit.NewCX(a, b))
			}
		}
		if c.NumGates() == 0 {
			continue
		}
		inc := mustSolver(t, c, dev)
		// Query bounds out of order to exercise assumption re-selection.
		for _, k := range []int{2, 0, 3, 1, 2} {
			okI, _, err := inc.DecideCtx(context.Background(), k)
			if err != nil {
				t.Fatal(err)
			}
			if okC := coldSolve(t, inc, k); okI != okC {
				t.Fatalf("iter %d (%s) k=%d: incremental=%v cold=%v", iter, dev.Name(), k, okI, okC)
			}
		}
		coldMin := -1
		for k := 0; k <= 5 && coldMin < 0; k++ {
			if coldSolve(t, inc, k) {
				coldMin = k
			}
		}
		res, err := inc.MinSwapsCtx(context.Background(), 5)
		if (err == nil) != (coldMin >= 0) {
			t.Fatalf("iter %d: MinSwaps err %v, cold minimum %d", iter, err, coldMin)
		}
		if err == nil && res.SwapCount != coldMin {
			t.Fatalf("iter %d: MinSwaps %d vs cold %d", iter, res.SwapCount, coldMin)
		}
	}
}

// The exported DIMACS formula must agree with the live solver: SAT at the
// optimum, UNSAT below it.
func TestExportDIMACSAgreesWithDecide(t *testing.T) {
	if testing.Short() {
		t.Skip("DIMACS cross-check in -short mode")
	}
	c := circuit.New(3)
	c.MustAppend(circuit.NewCX(0, 1), circuit.NewCX(1, 2), circuit.NewCX(0, 2))
	s := mustSolver(t, c, arch.Line(4))
	for k, want := range map[int]bool{0: false, 1: true} {
		if got := coldSolve(t, s, k); got != want {
			t.Fatalf("k=%d: DIMACS satisfiable=%v, want %v", k, got, want)
		}
	}
	if err := s.ExportDIMACS(&strings.Builder{}, -1); err == nil {
		t.Fatal("negative k accepted")
	}
}

// Round-trip drift check: the exported formula (incremental encoding with
// activation and finalization assumptions asserted as unit clauses) must
// reparse cleanly and reproduce the live engine's verdict at every bound.
func TestExportDIMACSRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("DIMACS round-trip in -short mode")
	}
	rng := rand.New(rand.NewSource(7))
	devices := []*arch.Device{arch.Line(4), arch.Ring(5)}
	for iter := 0; iter < 4; iter++ {
		dev := devices[iter%len(devices)]
		nq := dev.NumQubits()
		c := circuit.New(nq)
		for i := 0; i < 4+rng.Intn(4); i++ {
			a, b := rng.Intn(nq), rng.Intn(nq)
			if a != b {
				c.MustAppend(circuit.NewCX(a, b))
			}
		}
		if c.NumGates() == 0 {
			continue
		}
		inc := mustSolver(t, c, dev)
		for k := 0; k <= 2; k++ {
			got := coldSolve(t, inc, k)
			okI, _, err := inc.DecideCtx(context.Background(), k)
			if err != nil {
				t.Fatal(err)
			}
			if got != okI {
				t.Fatalf("iter %d k=%d: DIMACS satisfiable=%v, incremental Decide says %v", iter, k, got, okI)
			}
		}
	}
}

func TestDecideCtxCancellationDistinctFromBudget(t *testing.T) {
	// A dead context surfaces as a context error, not as the conflict-
	// budget message, so callers can retry on deadline but trust budget
	// exhaustion as a configuration signal.
	c := circuit.New(9)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 25; i++ {
		a, b := rng.Intn(9), rng.Intn(9)
		if a != b {
			c.MustAppend(circuit.NewCX(a, b))
		}
	}
	s, err := New(c, arch.Grid3x3(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err = s.DecideCtx(ctx, 0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The incremental encoding must remain usable after cancellation.
	ok, _, err := s.DecideCtx(context.Background(), 0)
	if err != nil {
		t.Fatalf("post-cancel decide: %v", err)
	}
	_ = ok
}

func TestVerifyOptimalCtxDeadline(t *testing.T) {
	// A deliberately hard instance under a tiny deadline: the SAT search
	// must stop and report the deadline within a sane wall-clock bound.
	c := circuit.New(9)
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 40; i++ {
		a, b := rng.Intn(9), rng.Intn(9)
		if a != b {
			c.MustAppend(circuit.NewCX(a, b))
		}
	}
	s, err := New(c, arch.Grid3x3(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	err = s.VerifyOptimalCtx(ctx, 9)
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("verification ran %v past a 10ms deadline", elapsed)
	}
	if err == nil || !errors.Is(err, context.DeadlineExceeded) {
		// The solver reached a verdict before the deadline fired.
		t.Skipf("instance decided within the deadline (err=%v); nothing to assert", err)
	}
}
