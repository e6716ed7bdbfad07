package router

import (
	"math/rand"
	"testing"

	"repro/internal/arch"
	"repro/internal/circuit"
)

func TestWeaveIdentityWhenNoSingles(t *testing.T) {
	orig := circuit.New(3)
	orig.MustAppend(circuit.NewCX(0, 1), circuit.NewCX(1, 2))
	skeleton := orig.Clone()
	out, err := WeaveSingleQubitGates(orig, skeleton)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumGates() != 2 {
		t.Fatalf("gates=%d", out.NumGates())
	}
}

func TestWeaveLeadingAndTrailingSingles(t *testing.T) {
	orig := circuit.New(2)
	orig.MustAppend(circuit.NewH(0), circuit.NewCX(0, 1), circuit.NewX(1))
	skeleton := circuit.New(2)
	skeleton.MustAppend(circuit.NewCX(0, 1))
	out, err := WeaveSingleQubitGates(orig, skeleton)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumGates() != 3 {
		t.Fatalf("gates=%d want 3", out.NumGates())
	}
	if out.Gates[0].Kind != circuit.H || out.Gates[2].Kind != circuit.X {
		t.Fatalf("order wrong: %v", out.Gates)
	}
}

func TestWeaveSingleBetweenGatesOnSameQubit(t *testing.T) {
	// h(1) sits between two CX gates touching qubit 1; it must stay there.
	orig := circuit.New(3)
	orig.MustAppend(circuit.NewCX(0, 1), circuit.NewH(1), circuit.NewCX(1, 2))
	skeleton := circuit.New(3)
	skeleton.MustAppend(circuit.NewCX(0, 1), circuit.NewSwap(0, 2), circuit.NewCX(1, 2))
	out, err := WeaveSingleQubitGates(orig, skeleton)
	if err != nil {
		t.Fatal(err)
	}
	// Find positions.
	var hPos, cx01, cx12 int = -1, -1, -1
	for i, g := range out.Gates {
		switch {
		case g.Kind == circuit.H:
			hPos = i
		case g.Kind == circuit.CX && g.Q0 == 0:
			cx01 = i
		case g.Kind == circuit.CX && g.Q0 == 1:
			cx12 = i
		}
	}
	if !(cx01 < hPos && hPos < cx12) {
		t.Fatalf("h(1) not between its neighbors: positions %d %d %d (%v)", cx01, hPos, cx12, out.Gates)
	}
}

func TestWeaveRejectsWrongSkeleton(t *testing.T) {
	orig := circuit.New(2)
	orig.MustAppend(circuit.NewCX(0, 1))

	// Skeleton with a foreign gate.
	bad := circuit.New(2)
	bad.MustAppend(circuit.NewCX(1, 0))
	if _, err := WeaveSingleQubitGates(orig, bad); err == nil {
		t.Error("mismatched gate accepted")
	}

	// Skeleton missing a gate.
	empty := circuit.New(2)
	if _, err := WeaveSingleQubitGates(orig, empty); err == nil {
		t.Error("missing gate accepted")
	}

	// Skeleton with a stray single-qubit gate.
	stray := circuit.New(2)
	stray.MustAppend(circuit.NewH(0), circuit.NewCX(0, 1))
	if _, err := WeaveSingleQubitGates(orig, stray); err == nil {
		t.Error("1q gate in skeleton accepted")
	}

	// Skeleton register mismatch.
	wide := circuit.New(3)
	wide.MustAppend(circuit.NewCX(0, 1))
	if _, err := WeaveSingleQubitGates(orig, wide); err == nil {
		t.Error("register mismatch accepted")
	}

	// Malformed gates that circuit.Append would refuse, placed in the
	// skeleton directly: weave must return an error, not panic.
	orig3 := circuit.New(3)
	orig3.MustAppend(circuit.NewH(2), circuit.NewCX(0, 1))
	for _, g := range []circuit.Gate{
		circuit.NewSwap(1, 1), // one qubit twice
		circuit.NewSwap(0, 7), // outside the register
		circuit.NewCX(0, 7),   // outside the register, not a SWAP
	} {
		malformed := circuit.New(3)
		malformed.Gates = []circuit.Gate{g, circuit.NewCX(0, 1)}
		if _, err := WeaveSingleQubitGates(orig3, malformed); err == nil {
			t.Errorf("skeleton gate %v accepted", g)
		}
	}
}

func TestWeaveRejectsExtraGateInSkeleton(t *testing.T) {
	orig := circuit.New(2)
	orig.MustAppend(circuit.NewCX(0, 1))
	extra := circuit.New(2)
	extra.MustAppend(circuit.NewCX(0, 1), circuit.NewCX(0, 1))
	if _, err := WeaveSingleQubitGates(orig, extra); err == nil {
		t.Error("extra skeleton gate accepted")
	}
}

// Property: weaving the skeleton of a random circuit with random SWAPs
// inserted yields a circuit that validates as a routing result whenever
// gate placements are physically adjacent under the identity mapping on a
// complete device (adjacency trivially true).
func TestWeavePropertyRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	dev := arch.FullyConnected(5)
	for iter := 0; iter < 50; iter++ {
		orig := circuit.New(5)
		for i := 0; i < 25; i++ {
			switch rng.Intn(4) {
			case 0:
				orig.MustAppend(circuit.NewH(rng.Intn(5)))
			case 1:
				orig.MustAppend(circuit.NewRZ(rng.Intn(5), 0.5))
			default:
				a, b := rng.Intn(5), rng.Intn(5)
				if a != b {
					orig.MustAppend(circuit.NewCX(a, b))
				}
			}
		}
		skeleton := TwoQubitSkeleton(orig)
		// Sprinkle SWAPs at random positions.
		withSwaps := circuit.New(5)
		for _, g := range skeleton.Gates {
			if rng.Intn(3) == 0 {
				a, b := rng.Intn(5), rng.Intn(5)
				if a != b {
					withSwaps.MustAppend(circuit.NewSwap(a, b))
				}
			}
			withSwaps.MustAppend(g)
		}
		out, err := WeaveSingleQubitGates(orig, withSwaps)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		res := &Result{
			Tool:           "weave-test",
			InitialMapping: IdentityMapping(5),
			Transpiled:     out,
			SwapCount:      out.SwapCount(),
		}
		if err := Validate(orig, dev, res); err != nil {
			t.Fatalf("iter %d: woven result invalid: %v", iter, err)
		}
	}
}

func TestPadToDevice(t *testing.T) {
	c := circuit.New(3)
	c.MustAppend(circuit.NewCX(0, 2))
	dev := arch.Line(6)
	p := PadToDevice(c, dev)
	if p.NumQubits != 6 {
		t.Fatalf("padded to %d", p.NumQubits)
	}
	if p.NumGates() != 1 {
		t.Fatal("gates lost in padding")
	}
	// Same-size circuits pass through unchanged.
	c6 := circuit.New(6)
	if PadToDevice(c6, dev) != c6 {
		t.Error("identity padding should return the original")
	}
}

func TestValidateAcceptsIndependentReordering(t *testing.T) {
	// Gates on disjoint qubits may be emitted in either order.
	orig := circuit.New(4)
	orig.MustAppend(circuit.NewCX(0, 1), circuit.NewCX(2, 3))
	dev := arch.Line(4)
	trans := circuit.New(4)
	trans.MustAppend(circuit.NewCX(2, 3), circuit.NewCX(0, 1))
	res := &Result{
		InitialMapping: IdentityMapping(4),
		Transpiled:     trans,
		SwapCount:      0,
	}
	if err := Validate(orig, dev, res); err != nil {
		t.Fatalf("valid reordering rejected: %v", err)
	}
}

func TestValidateAcceptsAncillaSwaps(t *testing.T) {
	// 2-qubit circuit on a 3-qubit line; a SWAP through the ancilla q2.
	orig := circuit.New(2)
	orig.MustAppend(circuit.NewCX(0, 1), circuit.NewCX(0, 1))
	dev := arch.Line(3)
	trans := circuit.New(3)
	trans.MustAppend(
		circuit.NewCX(0, 1),
		circuit.NewSwap(1, 2), // q1 <-> ancilla
		circuit.NewSwap(1, 2), // and back
		circuit.NewCX(0, 1),
	)
	res := &Result{
		InitialMapping: Mapping{0, 1, 2},
		Transpiled:     trans,
		SwapCount:      2,
	}
	if err := Validate(orig, dev, res); err != nil {
		t.Fatalf("ancilla swaps rejected: %v", err)
	}
	// But a CX touching the ancilla must be rejected.
	bad := circuit.New(3)
	bad.MustAppend(circuit.NewCX(0, 1), circuit.NewCX(1, 2), circuit.NewCX(0, 1))
	res.Transpiled = bad
	res.SwapCount = 0
	if err := Validate(orig, dev, res); err == nil {
		t.Fatal("gate on ancilla accepted")
	}
}
