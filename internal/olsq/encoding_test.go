package olsq_test

// Encoding-size checks: the exported DIMACS header shows which
// at-most-one encoding the mapping constraints use, pairwise exclusions
// up to 64 device qubits and sequential counters above.

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/olsq"
	"repro/internal/sat"
)

// dimacsHeader returns the "p cnf <vars> <clauses>" line ExportDIMACS
// writes at bound k.
func dimacsHeader(t *testing.T, s *olsq.Solver, k int) string {
	t.Helper()
	var sb strings.Builder
	if err := s.ExportDIMACS(&sb, k); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(sb.String(), "\n") {
		if strings.HasPrefix(line, "p cnf ") {
			return line
		}
	}
	t.Fatal("export has no p cnf header")
	return ""
}

func headerVars(t *testing.T, header string) int {
	t.Helper()
	var vars, clauses int
	if _, err := fmt.Sscanf(header, "p cnf %d %d", &vars, &clauses); err != nil {
		t.Fatalf("header %q: %v", header, err)
	}
	return vars
}

// amoAux counts the auxiliary variables sat.AddAtMostOne declares for a
// set of n literals.
func amoAux(t *testing.T, n int) int {
	t.Helper()
	r := sat.NewRecorder()
	lits := make([]sat.Lit, n)
	for i := range lits {
		lits[i] = sat.Lit(r.NewVar())
	}
	if err := sat.AddAtMostOne(r, lits); err != nil {
		t.Fatal(err)
	}
	return r.Formula.NumVars - n
}

// encodedVars predicts the variable count of the formula at bound k.
// Per block: the mapping x, each gate's u and t, and fin. Per transition:
// the swapped edges with their at-most-one, act, and moved. With counter
// set, each mapping row and column adds its sequential-counter
// auxiliaries; pairwise mapping constraints add none.
func encodedVars(t *testing.T, c *circuit.Circuit, dev *arch.Device, k int, counter bool) int {
	t.Helper()
	nQ, nP, nG, nE := c.NumQubits, dev.NumQubits(), circuit.NewDAG(c).N(), len(dev.Graph().Edges())
	block := nQ*nP + 2*nG + 1
	if counter {
		block += nQ*amoAux(t, nP) + nP*amoAux(t, nQ)
	}
	return (k+1)*block + k*(nE+amoAux(t, nE)+1+nP)
}

func newSolver(t *testing.T, c *circuit.Circuit, dev *arch.Device) *olsq.Solver {
	t.Helper()
	s, err := olsq.New(c, dev, olsq.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// The mapping constraints switch from pairwise exclusions to sequential
// counters exactly above 64 device qubits.
func TestMappingEncodingCutoff(t *testing.T) {
	c := circuit.New(8)
	for q := 0; q+1 < 8; q++ {
		c.MustAppend(circuit.NewCX(q, q+1))
	}
	c.MustAppend(circuit.NewCX(0, 7))
	for nP, counter := range map[int]bool{64: false, 65: true} {
		dev := arch.Line(nP)
		s := newSolver(t, c, dev)
		if got, want := headerVars(t, dimacsHeader(t, s, 1)), encodedVars(t, c, dev, 1, counter); got != want {
			t.Errorf("line-%d: header declares %d variables, want %d (counter=%v)", nP, got, want, counter)
		}
	}
}

// Above the cutoff the encoding is the sequential-counter one, byte for
// byte: the exported header is the one recorded before pairwise mapping
// constraints existed, and the counter still certifies the optimum.
func TestCounterEncodingAboveCutoff(t *testing.T) {
	if testing.Short() {
		t.Skip("exact certification in -short mode")
	}
	dev, b := goldenInstance(t, goldenCase{device: "hummingbird65", numSwaps: 1, instance: 1})
	s := newSolver(t, b.Circuit, dev)
	const recorded = "p cnf 25421 81639"
	if got := dimacsHeader(t, s, 1); got != recorded {
		t.Errorf("hummingbird65 header %q, want %q", got, recorded)
	}
	if got, want := headerVars(t, recorded), encodedVars(t, b.Circuit, dev, 1, true); got != want {
		t.Errorf("recorded header declares %d variables, counter encoding predicts %d", got, want)
	}
	if err := s.VerifyOptimalCtx(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
}

// At Section IV-A sizes the mapping constraints are pairwise: the
// Aspen-4 header counts no counter auxiliaries (it declared 1646
// variables with them).
func TestPairwiseEncodingOnAspen4(t *testing.T) {
	dev, b := goldenInstance(t, goldenCase{device: "aspen4", numSwaps: 1, instance: 1})
	s := newSolver(t, b.Circuit, dev)
	if got, want := headerVars(t, dimacsHeader(t, s, 1)), encodedVars(t, b.Circuit, dev, 1, false); got != want {
		t.Errorf("aspen4 header declares %d variables, want %d with pairwise mapping constraints", got, want)
	}
}
