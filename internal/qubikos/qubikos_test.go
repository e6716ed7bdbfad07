package qubikos

import (
	"context"
	"testing"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/olsq"
	"repro/internal/router"
)

func gen(t *testing.T, dev *arch.Device, opts Options) *Benchmark {
	t.Helper()
	b, err := Generate(dev, opts)
	if err != nil {
		t.Fatalf("Generate(%s, %+v): %v", dev.Name(), opts, err)
	}
	return b
}

func TestGenerateBasicLine(t *testing.T) {
	b := gen(t, arch.Line(5), Options{NumSwaps: 2, Seed: 1})
	if b.OptSwaps != 2 {
		t.Fatalf("OptSwaps=%d", b.OptSwaps)
	}
	if b.Solution.SwapCount != 2 {
		t.Fatalf("solution swaps=%d", b.Solution.SwapCount)
	}
	if err := Verify(b); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

func TestGenerateAllPaperDevices(t *testing.T) {
	for _, dev := range arch.PaperDevices() {
		for _, n := range []int{1, 3} {
			b := gen(t, dev, Options{NumSwaps: n, Seed: 7})
			if err := Verify(b); err != nil {
				t.Errorf("%s n=%d: %v", dev.Name(), n, err)
			}
		}
	}
}

func TestGenerateWithPadding(t *testing.T) {
	b := gen(t, arch.RigettiAspen4(), Options{NumSwaps: 3, TargetTwoQubitGates: 120, Seed: 3})
	if got := b.Circuit.TwoQubitGateCount(); got != 120 {
		t.Errorf("2q gates=%d want 120", got)
	}
	if err := Verify(b); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	// Padding draws from the random stream only after the sections, so
	// the same seed without a target yields the backbone alone.
	backbone := gen(t, arch.RigettiAspen4(), Options{NumSwaps: 3, Seed: 3})
	if got := backbone.Circuit.TwoQubitGateCount(); got >= 120 {
		t.Errorf("backbone alone has %d two-qubit gates; expected padding gates", got)
	}
}

func TestGenerateWithSingleQubitGates(t *testing.T) {
	b := gen(t, arch.Grid3x3(), Options{NumSwaps: 2, SingleQubitGates: 15, Seed: 11})
	oneQ := 0
	for _, g := range b.Circuit.Gates {
		if !g.TwoQubit() {
			oneQ++
		}
	}
	if oneQ != 15 {
		t.Errorf("1q gates=%d want 15", oneQ)
	}
	if err := Verify(b); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := gen(t, arch.GoogleSycamore54(), Options{NumSwaps: 4, TargetTwoQubitGates: 200, Seed: 42})
	b := gen(t, arch.GoogleSycamore54(), Options{NumSwaps: 4, TargetTwoQubitGates: 200, Seed: 42})
	if a.Circuit.NumGates() != b.Circuit.NumGates() {
		t.Fatal("same seed, different sizes")
	}
	for i := range a.Circuit.Gates {
		if a.Circuit.Gates[i] != b.Circuit.Gates[i] {
			t.Fatalf("same seed, gate %d differs", i)
		}
	}
	c := gen(t, arch.GoogleSycamore54(), Options{NumSwaps: 4, TargetTwoQubitGates: 200, Seed: 43})
	same := a.Circuit.NumGates() == c.Circuit.NumGates()
	if same {
		for i := range a.Circuit.Gates {
			if a.Circuit.Gates[i] != c.Circuit.Gates[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical benchmarks")
	}
}

func TestGenerateZeroSwapsQuekoLike(t *testing.T) {
	b := gen(t, arch.Grid3x3(), Options{NumSwaps: 0, TargetTwoQubitGates: 25, Seed: 5})
	if b.OptSwaps != 0 || b.Solution.SwapCount != 0 {
		t.Fatal("zero-swap benchmark has swaps")
	}
	if err := Verify(b); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	// Exact check: 0 swaps must suffice.
	s, err := olsq.New(b.Circuit, b.Device, olsq.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ok, _, err := s.DecideCtx(context.Background(), 0)
	if err != nil || !ok {
		t.Fatalf("QUEKO-like benchmark not solvable with 0 swaps: ok=%v err=%v", ok, err)
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, err := Generate(arch.Line(4), Options{NumSwaps: -1}); err == nil {
		t.Error("negative swaps accepted")
	}
	if _, err := Generate(arch.FullyConnected(5), Options{NumSwaps: 1}); err == nil {
		t.Error("fully connected device accepted")
	}
	if _, err := Generate(arch.Line(4), Options{NumSwaps: 1, TargetTwoQubitGates: 50, MaxTwoQubitGates: 20}); err == nil {
		t.Error("target above cap accepted")
	}
}

func TestGenerateGateCap(t *testing.T) {
	// The paper's Section IV-A setting: at most 30 two-qubit gates.
	for _, dev := range []*arch.Device{arch.Grid3x3(), arch.RigettiAspen4()} {
		for n := 1; n <= 4; n++ {
			b := gen(t, dev, Options{
				NumSwaps:            n,
				MaxTwoQubitGates:    30,
				TargetTwoQubitGates: 30,
				PreferHighDegree:    true,
				Seed:                int64(100*n) + 7,
			})
			if got := b.Circuit.TwoQubitGateCount(); got > 30 {
				t.Errorf("%s n=%d: %d two-qubit gates exceeds cap", dev.Name(), n, got)
			}
			if err := Verify(b); err != nil {
				t.Errorf("%s n=%d: %v", dev.Name(), n, err)
			}
		}
	}
}

// The paper's optimality study in miniature: the exact SAT solver agrees
// that generated circuits need exactly n SWAPs.
func TestExactOptimalityStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("SAT verification in -short mode")
	}
	for _, dev := range []*arch.Device{arch.Grid3x3(), arch.RigettiAspen4()} {
		for n := 1; n <= 2; n++ {
			for seed := int64(0); seed < 3; seed++ {
				b := gen(t, dev, Options{
					NumSwaps:         n,
					MaxTwoQubitGates: 30,
					PreferHighDegree: true,
					Seed:             seed*131 + int64(n),
				})
				s, err := olsq.New(b.Circuit, b.Device, olsq.Options{})
				if err != nil {
					t.Fatal(err)
				}
				if err := s.VerifyOptimalCtx(context.Background(), n); err != nil {
					t.Errorf("%s n=%d seed=%d: exact check failed: %v", dev.Name(), n, seed, err)
				}
			}
		}
	}
}

// The cut chain of a generated benchmark cuts at the sections' special
// gates, in order.
func TestSectionMetadata(t *testing.T) {
	b := gen(t, arch.RigettiAspen4(), Options{NumSwaps: 3, Seed: 9})
	if len(b.Sections) != 3 {
		t.Fatalf("sections=%d", len(b.Sections))
	}
	cuts := CutChain(b.Circuit, b.Device.Graph())
	if len(cuts) != 3 {
		t.Fatalf("chain has %d cuts, want 3", len(cuts))
	}
	for j, sec := range b.Sections {
		if !b.Device.Graph().HasEdge(sec.SwapPhys.U, sec.SwapPhys.V) {
			t.Errorf("section %d swap edge %v not a coupler", j, sec.SwapPhys)
		}
		// The swapped program qubits occupy the edge under MappingBefore.
		pa := sec.MappingBefore[sec.SwapProg[0]]
		pb := sec.MappingBefore[sec.SwapProg[1]]
		if (pa != sec.SwapPhys.U || pb != sec.SwapPhys.V) && (pa != sec.SwapPhys.V || pb != sec.SwapPhys.U) {
			t.Errorf("section %d swap program pair inconsistent with mapping", j)
		}
		if b.Circuit.Gates[cuts[j]] != sec.Special {
			t.Errorf("section %d: cut gate %v is not its special %v", j, b.Circuit.Gates[cuts[j]], sec.Special)
		}
	}
}

// Sections minus their special gate must be executable in place: the
// bundled solution demonstrates that, but check explicitly that every
// gate before a section's special (its cut) is coupler-adjacent under
// the section mapping.
func TestSectionBodiesExecutableInPlace(t *testing.T) {
	b := gen(t, arch.Grid3x3(), Options{NumSwaps: 3, Seed: 33})
	gc := b.Device.Graph()
	cuts := CutChain(b.Circuit, gc)
	if len(cuts) != b.OptSwaps {
		t.Fatalf("chain has %d cuts, want %d", len(cuts), b.OptSwaps)
	}
	z := 0 // section of gate i: the number of cuts before it
	for i, g := range b.Circuit.Gates {
		if z == len(cuts) {
			break
		}
		if i == cuts[z] {
			z++
			continue
		}
		if !g.TwoQubit() {
			continue
		}
		f := b.Sections[z].MappingBefore
		if !gc.HasEdge(f[g.Q0], f[g.Q1]) {
			t.Fatalf("gate %d (%v) in section %d not executable under its mapping", i, g, z)
		}
	}
}

// The special gate must NOT be executable in place (it forces the swap).
func TestSpecialGateBlockedInPlace(t *testing.T) {
	b := gen(t, arch.RigettiAspen4(), Options{NumSwaps: 4, Seed: 13})
	gc := b.Device.Graph()
	for j, sec := range b.Sections {
		f := sec.MappingBefore
		if gc.HasEdge(f[sec.Special.Q0], f[sec.Special.Q1]) {
			t.Errorf("section %d special executable without its swap", j)
		}
	}
}

// --- verifier mutation tests: Verify must reject corrupted benchmarks ---

func TestVerifyCatchesWrongSwapCount(t *testing.T) {
	b := gen(t, arch.Line(5), Options{NumSwaps: 2, Seed: 2})
	b.Solution.SwapCount = 1
	if Verify(b) == nil {
		t.Fatal("wrong solution swap count accepted")
	}
}

func TestVerifyCatchesCorruptedSolution(t *testing.T) {
	b := gen(t, arch.Line(5), Options{NumSwaps: 2, Seed: 2})
	// Drop the last gate of the solution.
	b.Solution.Transpiled.Gates = b.Solution.Transpiled.Gates[:b.Solution.Transpiled.NumGates()-1]
	if Verify(b) == nil {
		t.Fatal("corrupted solution accepted")
	}
}

func TestVerifyCatchesBrokenSerialization(t *testing.T) {
	b := gen(t, arch.Grid3x3(), Options{NumSwaps: 2, Seed: 8})
	// Move a body gate of section 1 out of the dependency sandwich:
	// retarget it onto qubits it does not touch. Without padding or
	// single-qubit gates, the gate right after section 0's special (the
	// first cut) is section 1's first body gate.
	cuts := CutChain(b.Circuit, b.Device.Graph())
	if len(cuts) != 2 {
		t.Fatalf("chain has %d cuts, want 2", len(cuts))
	}
	idx := cuts[0] + 1
	if !b.Circuit.Gates[idx].TwoQubit() || idx == cuts[1] {
		t.Fatalf("gate %d is not a section-1 body gate", idx)
	}
	// Retarget both the benchmark and solution copies so the solution
	// still "matches" but dependencies break. Rebuilding the solution
	// circuit keeps router.Validate focused on the serialization check.
	old := b.Circuit.Gates[idx]
	var replacement circuit.Gate
	found := false
	for a := 0; a < b.Circuit.NumQubits && !found; a++ {
		for c := a + 1; c < b.Circuit.NumQubits && !found; c++ {
			cand := circuit.NewCX(a, c)
			if a == old.Q0 || a == old.Q1 || c == old.Q0 || c == old.Q1 {
				continue
			}
			// Must stay executable under section mapping to not trip the
			// solution check first.
			f := b.Sections[1].MappingBefore
			if b.Device.Graph().HasEdge(f[a], f[c]) {
				replacement = cand
				found = true
			}
		}
	}
	if !found {
		t.Skip("no replacement gate available")
	}
	b.Circuit.Gates[idx] = replacement
	for i, g := range b.Solution.Transpiled.Gates {
		if g == old {
			b.Solution.Transpiled.Gates[i] = replacement
			break
		}
	}
	// The witness still routes the corrupted circuit with 2 SWAPs, and the
	// exact solver still needs 2, but the chain can prove only 1: Verify
	// accepts no claim the chain does not prove.
	if k := len(CutChain(b.Circuit, b.Device.Graph())); k != 1 {
		t.Fatalf("corrupted chain has %d cuts, want 1", k)
	}
	if err := router.Validate(b.Circuit, b.Device, b.Solution); err != nil {
		t.Fatalf("corrupted witness invalid: %v", err)
	}
	if !testing.Short() {
		s, err := olsq.New(b.Circuit, b.Device, olsq.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.VerifyOptimalCtx(context.Background(), 2); err != nil {
			t.Fatalf("exact optimum of the corrupted circuit: %v", err)
		}
	}
	if Verify(b) == nil {
		t.Fatal("broken serialization accepted")
	}
}

func TestVerifyNil(t *testing.T) {
	if Verify(nil) == nil {
		t.Fatal("nil benchmark accepted")
	}
}

// Property: across many seeds, devices and sizes, generation verifies and
// the heuristically relevant invariants hold.
func TestGenerateProperty(t *testing.T) {
	devices := []*arch.Device{
		arch.Line(6), arch.Ring(8), arch.Grid(3, 4), arch.Grid3x3(),
		arch.RigettiAspen4(), arch.Star(6),
	}
	for seed := int64(0); seed < 20; seed++ {
		dev := devices[int(seed)%len(devices)]
		n := 1 + int(seed)%4
		b, err := Generate(dev, Options{NumSwaps: n, TargetTwoQubitGates: 40, Seed: seed})
		if err != nil {
			t.Fatalf("seed=%d dev=%s n=%d: %v", seed, dev.Name(), n, err)
		}
		if err := Verify(b); err != nil {
			t.Fatalf("seed=%d dev=%s n=%d: Verify: %v", seed, dev.Name(), n, err)
		}
		if b.Circuit.SwapCount() != 0 {
			t.Fatal("benchmark circuit must not contain SWAP gates")
		}
		if err := router.Validate(b.Circuit, dev, b.Solution); err != nil {
			t.Fatalf("seed=%d: %v", seed, err)
		}
	}
}

// Star devices exercise the corner where the hub is the only high-degree
// vertex and sections become stars plus the hub saturation.
func TestGenerateOnStar(t *testing.T) {
	b := gen(t, arch.Star(7), Options{NumSwaps: 2, Seed: 17})
	if err := Verify(b); err != nil {
		t.Fatal(err)
	}
}

// The generator must work on the extended heavy-hex family too.
func TestGenerateOnHeavyHexFamily(t *testing.T) {
	for _, dev := range []*arch.Device{arch.IBMFalcon27(), arch.IBMHummingbird65(), arch.HeavyHex(3, 7)} {
		b := gen(t, dev, Options{NumSwaps: 3, TargetTwoQubitGates: 100, Seed: 41})
		if err := Verify(b); err != nil {
			t.Errorf("%s: %v", dev.Name(), err)
		}
	}
}
