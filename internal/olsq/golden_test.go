package olsq_test

// Golden corpus for the exact-verification engine. The expected values
// below were recorded from the pre-refactor engine (per-k re-encode, cold
// solver per bound, pointer-based CDCL core) on a fixed QUBIKOS corpus.
// The incremental engine must reproduce every SAT/UNSAT verdict, MinSwaps
// value, and extracted swap count bit-for-bit, and a cold solve of each
// bound's exported DIMACS formula must reproduce the verdicts.

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/olsq"
	"repro/internal/qubikos"
	"repro/internal/router"
	"repro/internal/sat"
)

type goldenCase struct {
	device    string
	numSwaps  int
	instance  int
	decideLow bool // Decide(n-1) verdict
	decideAt  bool // Decide(n) verdict
	atCount   int  // swap count extracted from the Decide(n) witness
	minSwaps  int  // MinSwaps(n+2) result
	// SolverStats() after runGoldenCase's whole call sequence. They pin
	// the search itself: a change to propagation order, conflict analysis
	// or branching moves them even where every verdict survives.
	conflicts, decisions, propagations int64
}

// Recorded 2026-07-28 from the seed engine (commit f7754fb); instance
// seeds follow the optimality study's convention 7 + n*100_000 + i. The
// search counters were recorded later, from the engine with pairwise
// mapping constraints, and are exact for this encoding and solver.
var goldenCorpus = []goldenCase{
	{"grid3x3", 1, 0, false, true, 1, 1, 32, 93, 2457},
	{"grid3x3", 1, 1, false, true, 1, 1, 107, 238, 6213},
	{"grid3x3", 2, 0, false, true, 2, 2, 157, 313, 9673},
	{"grid3x3", 2, 1, false, true, 2, 2, 296, 563, 15420},
	{"grid3x3", 3, 0, false, true, 3, 3, 1873, 3453, 128670},
	{"grid3x3", 3, 1, false, true, 3, 3, 1022, 1926, 76718},
	{"aspen4", 1, 0, false, true, 1, 1, 95, 314, 9594},
	{"aspen4", 1, 1, false, true, 1, 1, 56, 248, 5330},
	{"aspen4", 2, 0, false, true, 2, 2, 417, 1197, 33053},
	{"aspen4", 2, 1, false, true, 2, 2, 661, 1870, 42846},
	{"aspen4", 3, 0, false, true, 3, 3, 1825, 4927, 208127},
	{"aspen4", 3, 1, false, true, 3, 3, 723, 1899, 67131},
}

func goldenDevice(t *testing.T, name string) *arch.Device {
	t.Helper()
	dev, err := arch.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return dev
}

// goldenInstance generates a golden case's instance.
func goldenInstance(t *testing.T, gc goldenCase) (*arch.Device, *qubikos.Benchmark) {
	t.Helper()
	dev := goldenDevice(t, gc.device)
	b, err := qubikos.Generate(dev, qubikos.Options{
		NumSwaps:            gc.numSwaps,
		MaxTwoQubitGates:    30,
		TargetTwoQubitGates: 30,
		PreferHighDegree:    true,
		Seed:                7 + int64(gc.numSwaps)*100_000 + int64(gc.instance),
	})
	if err != nil {
		t.Fatal(err)
	}
	return dev, b
}

func runGoldenCase(t *testing.T, gc goldenCase) {
	t.Helper()
	dev, b := goldenInstance(t, gc)
	s, err := olsq.New(b.Circuit, dev, olsq.Options{})
	if err != nil {
		t.Fatal(err)
	}
	okLow, _, err := s.DecideCtx(context.Background(), gc.numSwaps-1)
	if err != nil {
		t.Fatal(err)
	}
	if okLow != gc.decideLow {
		t.Errorf("Decide(%d)=%v want %v", gc.numSwaps-1, okLow, gc.decideLow)
	}
	okAt, resAt, err := s.DecideCtx(context.Background(), gc.numSwaps)
	if err != nil {
		t.Fatal(err)
	}
	if okAt != gc.decideAt {
		t.Fatalf("Decide(%d)=%v want %v", gc.numSwaps, okAt, gc.decideAt)
	}
	if resAt.SwapCount != gc.atCount {
		t.Errorf("extracted swap count %d want %d", resAt.SwapCount, gc.atCount)
	}
	if err := router.Validate(b.Circuit, dev, &resAt.Result); err != nil {
		t.Errorf("extracted witness invalid: %v", err)
	}
	res, err := s.MinSwapsCtx(context.Background(), gc.numSwaps+2)
	if err != nil {
		t.Fatal(err)
	}
	if res.SwapCount != gc.minSwaps {
		t.Errorf("MinSwaps=%d want %d", res.SwapCount, gc.minSwaps)
	}
	if err := s.VerifyOptimalCtx(context.Background(), gc.numSwaps); err != nil {
		t.Errorf("VerifyOptimal(%d): %v", gc.numSwaps, err)
	}
	st := s.SolverStats()
	if st.Conflicts != gc.conflicts || st.Decisions != gc.decisions || st.Propagations != gc.propagations {
		t.Errorf("search counters: %d conflicts, %d decisions, %d propagations; want %d, %d, %d",
			st.Conflicts, st.Decisions, st.Propagations, gc.conflicts, gc.decisions, gc.propagations)
	}
}

func TestGoldenCorpusIncremental(t *testing.T) {
	if testing.Short() {
		t.Skip("exact golden corpus in -short mode")
	}
	for _, gc := range goldenCorpus {
		gc := gc
		name := fmt.Sprintf("%s/n%d/i%d", gc.device, gc.numSwaps, gc.instance)
		t.Run(name, func(t *testing.T) { runGoldenCase(t, gc) })
	}
}

// maxCertAllocs bounds the heap allocations of one New + VerifyOptimalCtx
// on the golden corpus's Aspen-4 n=3 instance 1. It took 37,772 when
// every encoded clause passed a fresh slice to AddClause and watch lists
// grew from empty, and about 5,800 once the encoder reused its clause
// buffers and new variables' watch lists came from a shared slab. An
// encoder or solver path that allocates per clause again fails this.
const maxCertAllocs = 10_000

func TestVerifyOptimalAllocs(t *testing.T) {
	gc := goldenCorpus[11]
	if gc.device != "aspen4" || gc.numSwaps != 3 || gc.instance != 1 {
		t.Fatalf("golden case 11 is %s n=%d i=%d, want aspen4 n=3 i=1", gc.device, gc.numSwaps, gc.instance)
	}
	dev, b := goldenInstance(t, gc)
	allocs := testing.AllocsPerRun(1, func() {
		s, err := olsq.New(b.Circuit, dev, olsq.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.VerifyOptimalCtx(context.Background(), gc.numSwaps); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("New + VerifyOptimalCtx: %.0f allocations", allocs)
	if allocs > maxCertAllocs {
		t.Errorf("New + VerifyOptimalCtx made %.0f allocations, bound %d", allocs, maxCertAllocs)
	}
}

// TestGoldenCorpusPerKReencode re-derives the corpus's Decide verdicts
// the way the pre-refactor engine did: encode each bound on its own and
// solve it cold, here through ExportDIMACS on a fresh parsed formula.
func TestGoldenCorpusPerKReencode(t *testing.T) {
	if testing.Short() {
		t.Skip("exact golden corpus in -short mode")
	}
	for _, gc := range goldenCorpus {
		gc := gc
		name := fmt.Sprintf("%s/n%d/i%d", gc.device, gc.numSwaps, gc.instance)
		t.Run(name, func(t *testing.T) {
			dev, b := goldenInstance(t, gc)
			s, err := olsq.New(b.Circuit, dev, olsq.Options{})
			if err != nil {
				t.Fatal(err)
			}
			for k, want := range map[int]bool{gc.numSwaps - 1: gc.decideLow, gc.numSwaps: gc.decideAt} {
				var sb strings.Builder
				if err := s.ExportDIMACS(&sb, k); err != nil {
					t.Fatal(err)
				}
				f, err := sat.ParseDIMACS(strings.NewReader(sb.String()))
				if err != nil {
					t.Fatal(err)
				}
				st, err := f.Solve()
				if err != nil {
					t.Fatal(err)
				}
				if got := st == sat.Sat; got != want {
					t.Errorf("cold solve at k=%d: satisfiable=%v want %v", k, got, want)
				}
			}
		})
	}
}

// maxGoldenConflicts bounds the summed SAT conflicts of VerifyOptimal(n)
// over the golden corpus. Conflict counts are exact for a given encoding
// and solver, so this guards search effort on any host: the corpus took
// 9,529 conflicts with sequential-counter mapping constraints and 4,820
// with pairwise ones.
const maxGoldenConflicts = 5_000

func TestGoldenCorpusSearchEffort(t *testing.T) {
	if testing.Short() {
		t.Skip("exact golden corpus in -short mode")
	}
	var total int64
	for _, gc := range goldenCorpus {
		dev, b := goldenInstance(t, gc)
		s, err := olsq.New(b.Circuit, dev, olsq.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.VerifyOptimalCtx(context.Background(), gc.numSwaps); err != nil {
			t.Fatalf("%s n=%d i=%d: %v", gc.device, gc.numSwaps, gc.instance, err)
		}
		total += s.SolverStats().Conflicts
	}
	t.Logf("golden corpus VerifyOptimal conflicts: %d", total)
	if total > maxGoldenConflicts {
		t.Errorf("golden corpus VerifyOptimal took %d conflicts, bound %d", total, maxGoldenConflicts)
	}
}
