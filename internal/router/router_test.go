package router

import (
	"math"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/circuit"
)

func TestIdentityMapping(t *testing.T) {
	m := IdentityMapping(4)
	for i := 0; i < 4; i++ {
		if m[i] != i {
			t.Fatalf("identity[%d]=%d", i, m[i])
		}
	}
	if err := m.Validate(4); err != nil {
		t.Fatal(err)
	}
}

func TestMappingValidate(t *testing.T) {
	if err := (Mapping{0, 0}).Validate(3); err == nil {
		t.Error("duplicate assignment accepted")
	}
	if err := (Mapping{0, 5}).Validate(3); err == nil {
		t.Error("out-of-range accepted")
	}
	if err := (Mapping{2, 0, 1}).Validate(3); err != nil {
		t.Errorf("valid permutation rejected: %v", err)
	}
}

func TestMappingInverse(t *testing.T) {
	m := Mapping{2, 0}
	inv := m.Inverse(3)
	if inv[2] != 0 || inv[0] != 1 || inv[1] != -1 {
		t.Fatalf("inverse=%v", inv)
	}
}

func TestMappingSwapAndClone(t *testing.T) {
	m := Mapping{0, 1, 2}
	c := m.Clone()
	m.SwapProgram(0, 2)
	if m[0] != 2 || m[2] != 0 {
		t.Fatalf("SwapProgram failed: %v", m)
	}
	if c[0] != 0 {
		t.Error("Clone aliases original")
	}
}

// buildLineResult constructs the paper's Figure 1(e) example: circuit on 3
// qubits with interaction triangle, routed on a 4-qubit line with one SWAP.
func buildLineExample() (*circuit.Circuit, *arch.Device, *Result) {
	orig := circuit.New(3)
	orig.MustAppend(
		circuit.NewCX(0, 1),
		circuit.NewCX(1, 2),
		circuit.NewCX(0, 2),
	)
	dev := arch.Line(4)
	trans := circuit.New(3)
	trans.MustAppend(
		circuit.NewCX(0, 1),
		circuit.NewCX(1, 2),
		circuit.NewSwap(0, 1), // brings q0 next to q2
		circuit.NewCX(0, 2),
	)
	res := &Result{
		Tool:           "manual",
		InitialMapping: Mapping{0, 1, 2},
		Transpiled:     trans,
		SwapCount:      1,
	}
	return orig, dev, res
}

func TestValidateAcceptsCorrectResult(t *testing.T) {
	orig, dev, res := buildLineExample()
	if err := Validate(orig, dev, res); err != nil {
		t.Fatalf("valid result rejected: %v", err)
	}
}

func TestValidateCatchesWrongSwapCount(t *testing.T) {
	orig, dev, res := buildLineExample()
	res.SwapCount = 2
	if err := Validate(orig, dev, res); err == nil {
		t.Fatal("wrong SwapCount accepted")
	}
}

func TestValidateCatchesNonAdjacentGate(t *testing.T) {
	orig, dev, res := buildLineExample()
	// Remove the SWAP: cx(0,2) then acts on distance-2 qubits.
	bad := circuit.New(3)
	bad.MustAppend(orig.Gates...)
	res.Transpiled = bad
	res.SwapCount = 0
	if err := Validate(orig, dev, res); err == nil {
		t.Fatal("non-adjacent gate accepted")
	}
}

func TestValidateCatchesGateReordering(t *testing.T) {
	orig, dev, res := buildLineExample()
	sw := res.Transpiled.Gates
	sw[0], sw[1] = sw[1], sw[0]
	if err := Validate(orig, dev, res); err == nil {
		t.Fatal("reordered gates accepted")
	}
}

func TestValidateCatchesDroppedGate(t *testing.T) {
	orig, dev, res := buildLineExample()
	res.Transpiled.Gates = res.Transpiled.Gates[:len(res.Transpiled.Gates)-1]
	if err := Validate(orig, dev, res); err == nil {
		t.Fatal("dropped gate accepted")
	}
}

func TestValidateCatchesExtraGate(t *testing.T) {
	orig, dev, res := buildLineExample()
	res.Transpiled.MustAppend(circuit.NewCX(0, 1))
	if err := Validate(orig, dev, res); err == nil {
		t.Fatal("extra gate accepted")
	}
}

func TestValidateCatchesNonCouplerSwap(t *testing.T) {
	orig, dev, res := buildLineExample()
	// SWAP(0,2): p0 and p2 are distance 2 on the line.
	bad := circuit.New(3)
	bad.MustAppend(
		circuit.NewCX(0, 1),
		circuit.NewCX(1, 2),
		circuit.NewSwap(0, 2),
		circuit.NewCX(0, 2),
	)
	res.Transpiled = bad
	if err := Validate(orig, dev, res); err == nil {
		t.Fatal("non-coupler SWAP accepted")
	}
}

func TestValidateRejectsSwapInInput(t *testing.T) {
	orig := circuit.New(2)
	orig.MustAppend(circuit.NewSwap(0, 1))
	dev := arch.Line(2)
	res := &Result{
		InitialMapping: Mapping{0, 1},
		Transpiled:     orig.Clone(),
		SwapCount:      0,
	}
	if err := Validate(orig, dev, res); err == nil {
		t.Fatal("input with SWAPs accepted")
	}
}

func TestValidateBadMapping(t *testing.T) {
	orig, dev, res := buildLineExample()
	res.InitialMapping = Mapping{0, 0, 2}
	if err := Validate(orig, dev, res); err == nil {
		t.Fatal("non-injective mapping accepted")
	}
	res.InitialMapping = Mapping{0, 1}
	if err := Validate(orig, dev, res); err == nil {
		t.Fatal("short mapping accepted")
	}
}

func TestValidateNilResult(t *testing.T) {
	orig, dev, _ := buildLineExample()
	if err := Validate(orig, dev, nil); err == nil {
		t.Fatal("nil result accepted")
	}
}

// Single-qubit gates must ride along without connectivity checks.
func TestValidateWithSingleQubitGates(t *testing.T) {
	orig := circuit.New(3)
	orig.MustAppend(circuit.NewH(0), circuit.NewCX(0, 1), circuit.NewX(2))
	dev := arch.Line(3)
	res := &Result{
		InitialMapping: IdentityMapping(3),
		Transpiled:     orig.Clone(),
		SwapCount:      0,
	}
	if err := Validate(orig, dev, res); err != nil {
		t.Fatalf("1q gates broke validation: %v", err)
	}
}

// ParseQASM accepts rz(nan), and a NaN angle never equals itself, so
// Validate compares angles by bits: a correct routing of a NaN-angle
// circuit is accepted, and a changed angle is still caught.
func TestValidateAcceptsNaNAngles(t *testing.T) {
	orig, err := circuit.ParseQASM(strings.NewReader("qreg q[3]; rz(nan) q[0]; cx q[0],q[2]; rz(-0) q[2];"))
	if err != nil {
		t.Fatal(err)
	}
	dev := arch.Line(3)
	trans := circuit.New(3)
	trans.MustAppend(orig.Gates[0], circuit.NewSwap(1, 2), orig.Gates[1], orig.Gates[2])
	res := &Result{InitialMapping: IdentityMapping(3), Transpiled: trans, SwapCount: 1}
	if err := Validate(orig, dev, res); err != nil {
		t.Fatalf("correct routing of an rz(nan) circuit rejected: %v", err)
	}
	for _, param := range []float64{0, math.Inf(1)} {
		bad := trans.Clone()
		bad.Gates[3].Param = param
		if err := Validate(orig, dev, &Result{InitialMapping: IdentityMapping(3), Transpiled: bad, SwapCount: 1}); err == nil {
			t.Errorf("rz(-0) routed as rz(%v) accepted", param)
		}
	}
}
