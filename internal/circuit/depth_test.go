package circuit

import "testing"

// Golden depths for a hand-built circuit, computed by hand:
//
//	cx q0,q1   -> both at step 1
//	h  q0      -> single-qubit: no two-qubit effect
//	cx q1,q2   -> q1 was at 1, so step 2
//	cx q0,q1   -> q0 at 1, q1 at 2 -> step 3
//	swap q2,q3 -> q2 at 2, q3 at 0 -> 2+3 = 5 (SWAP costs 3)
//	cx q3,q0   -> q3 at 5, q0 at 3 -> step 6
func TestTwoQubitDepthGolden(t *testing.T) {
	c := New(4)
	c.MustAppend(
		NewCX(0, 1),
		NewH(0),
		NewCX(1, 2),
		NewCX(0, 1),
		NewSwap(2, 3),
		NewCX(3, 0),
	)
	if got := c.TwoQubitDepth(); got != 6 {
		t.Errorf("TwoQubitDepth = %d, want 6", got)
	}
}

// Single-qubit gates never move the two-qubit depth, wherever they sit.
func TestTwoQubitDepthIgnoresSingleQubitGates(t *testing.T) {
	bare := New(3)
	bare.MustAppend(NewCX(0, 1), NewCX(1, 2), NewCX(0, 1))
	want := bare.TwoQubitDepth()
	if want != 3 {
		t.Fatalf("bare chain depth = %d, want 3", want)
	}

	padded := New(3)
	padded.MustAppend(NewH(0), NewCX(0, 1), NewX(1), NewRZ(1, 0.5),
		NewCX(1, 2), NewH(2), NewCX(0, 1), NewX(0))
	if got := padded.TwoQubitDepth(); got != want {
		t.Errorf("single-qubit gates changed two-qubit depth: %d, want %d", got, want)
	}
}

// A SWAP costs exactly SwapDepthCost (3): its qubits advance three steps
// where a CX would advance one.
func TestTwoQubitDepthSwapCostsThree(t *testing.T) {
	if SwapDepthCost != 3 {
		t.Fatalf("SwapDepthCost = %d, want 3 (standard 3-CX decomposition)", SwapDepthCost)
	}
	viaCX := New(2)
	viaCX.MustAppend(NewCX(0, 1))
	viaSwap := New(2)
	viaSwap.MustAppend(NewSwap(0, 1))
	if got, want := viaSwap.TwoQubitDepth(), viaCX.TwoQubitDepth()+SwapDepthCost-1; got != want {
		t.Errorf("lone SWAP depth = %d, want %d", got, want)
	}
	// Chained after a CX on a shared qubit, the SWAP lands at 1+3.
	chain := New(3)
	chain.MustAppend(NewCX(0, 1), NewSwap(1, 2))
	if got := chain.TwoQubitDepth(); got != 4 {
		t.Errorf("cx;swap chain depth = %d, want 4", got)
	}
	// Disjoint qubits do not chain.
	par := New(4)
	par.MustAppend(NewCX(0, 1), NewSwap(2, 3))
	if got := par.TwoQubitDepth(); got != 3 {
		t.Errorf("parallel cx|swap depth = %d, want 3", got)
	}
}

func TestTwoQubitDepthEmptyAndSingleOnly(t *testing.T) {
	c := New(2)
	if got := c.TwoQubitDepth(); got != 0 {
		t.Errorf("empty circuit depth = %d, want 0", got)
	}
	c.MustAppend(NewH(0), NewX(1))
	if got := c.TwoQubitDepth(); got != 0 {
		t.Errorf("single-qubit-only depth = %d, want 0", got)
	}
}
