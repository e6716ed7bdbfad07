// End-to-end integration tests across module boundaries: generator ->
// verifier -> all four QLS tools -> independent result audit -> exact SAT
// cross-check, plus the serialization round trip the command-line tools
// rely on.
package repro_test

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/family"
	"repro/internal/harness"
	"repro/internal/olsq"
	"repro/internal/qubikos"
	"repro/internal/router"
)

// TestEndToEndPipeline runs the full life of a benchmark on every paper
// architecture: generate, structurally verify, route with all four tools,
// audit every result, and confirm nobody beats the proven optimum.
func TestEndToEndPipeline(t *testing.T) {
	tools := harness.DefaultTools(4)
	for _, dev := range arch.PaperDevices() {
		dev := dev
		t.Run(dev.Name(), func(t *testing.T) {
			b, err := qubikos.Generate(dev, qubikos.Options{
				NumSwaps:            4,
				TargetTwoQubitGates: 120,
				SingleQubitGates:    10,
				Seed:                71,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := qubikos.Verify(b); err != nil {
				t.Fatal(err)
			}
			for _, spec := range tools {
				res, err := router.RouteWithContext(context.Background(), spec.Make(5), b.Circuit, dev)
				if err != nil {
					t.Fatalf("%s: %v", spec.Name, err)
				}
				if err := router.Validate(b.Circuit, dev, res); err != nil {
					t.Fatalf("%s: invalid result: %v", spec.Name, err)
				}
				if res.SwapCount < b.OptSwaps {
					t.Fatalf("%s beat the proven optimum: %d < %d", spec.Name, res.SwapCount, b.OptSwaps)
				}
			}
		})
	}
}

// TestEndToEndExactAgreement cross-checks generator, cut-chain
// certificate and SAT solver on one instance: all three notions of
// "optimal SWAP count" must coincide.
func TestEndToEndExactAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("SAT cross-check in -short mode")
	}
	b, err := qubikos.Generate(arch.Grid3x3(), qubikos.Options{
		NumSwaps:            3,
		MaxTwoQubitGates:    30,
		TargetTwoQubitGates: 30,
		PreferHighDegree:    true,
		Seed:                12345,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := qubikos.Verify(b); err != nil {
		t.Fatal(err)
	}
	s, err := olsq.New(b.Circuit, b.Device, olsq.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.MinSwapsCtx(context.Background(), b.OptSwaps+2)
	if err != nil {
		t.Fatal(err)
	}
	if res.SwapCount != b.OptSwaps {
		t.Fatalf("exact optimum %d != generator claim %d", res.SwapCount, b.OptSwaps)
	}
	if err := router.Validate(b.Circuit, b.Device, &res.Result); err != nil {
		t.Fatal(err)
	}
}

// TestEndToEndInstanceFiles exercises the on-disk workflow of the
// command-line tools: write with the legacy qubikos writer, re-read with
// family.ReadInstance, route the re-read circuit.
func TestEndToEndInstanceFiles(t *testing.T) {
	dir := t.TempDir()
	b, err := qubikos.Generate(arch.RigettiAspen4(), qubikos.Options{
		NumSwaps: 2, TargetTwoQubitGates: 50, Seed: 88,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := qubikos.WriteInstance(dir, "inst", b); err != nil {
		t.Fatal(err)
	}
	li, err := family.ReadInstance(dir, "inst")
	if err != nil {
		t.Fatal(err)
	}
	tool := harness.DefaultTools(4)[0]
	res, err := router.RouteWithContext(context.Background(), tool.Make(3), li.Circuit, li.Device)
	if err != nil {
		t.Fatal(err)
	}
	if err := router.Validate(li.Circuit, li.Device, res); err != nil {
		t.Fatal(err)
	}
	if res.SwapCount < li.Meta.OptimalSwaps {
		t.Fatal("optimality violated through serialization")
	}
	// The solution file must also parse and carry exactly OptimalSwaps SWAPs.
	sf, err := os.Open(filepath.Join(dir, "inst.solution.qasm"))
	if err != nil {
		t.Fatal(err)
	}
	defer sf.Close()
	sol, err := circuit.ParseQASM(sf)
	if err != nil {
		t.Fatal(err)
	}
	if sol.SwapCount() != li.Meta.OptimalSwaps {
		t.Fatalf("solution file has %d swaps, claimed %d", sol.SwapCount(), li.Meta.OptimalSwaps)
	}
}

// Property (testing/quick): for arbitrary generator parameters within the
// supported envelope, generation either fails loudly or produces a
// benchmark that passes the cut-chain certificate and whose solution QASM
// round-trips.
func TestQuickGeneratorAlwaysVerifiable(t *testing.T) {
	devices := []*arch.Device{
		arch.Line(6), arch.Ring(7), arch.Grid3x3(), arch.RigettiAspen4(),
	}
	f := func(seed int64, devPick uint8, nPick, padPick uint8) bool {
		dev := devices[int(devPick)%len(devices)]
		n := int(nPick)%4 + 1
		pad := int(padPick) % 60
		b, err := qubikos.Generate(dev, qubikos.Options{
			NumSwaps:            n,
			TargetTwoQubitGates: pad,
			Seed:                seed,
		})
		if err != nil {
			return false
		}
		if qubikos.Verify(b) != nil {
			return false
		}
		text := circuit.QASMString(b.Circuit)
		back, err := circuit.ParseQASM(strings.NewReader(text))
		if err != nil {
			return false
		}
		return back.NumGates() == b.Circuit.NumGates()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property (testing/quick): Mapping primitives obey their algebraic
// contracts.
func TestQuickMappingAlgebra(t *testing.T) {
	f := func(permSeed uint8, a, b uint8) bool {
		n := 6
		m := router.IdentityMapping(n)
		// Derive a permutation from the seed by repeated swaps.
		x := int(permSeed)
		for i := 0; i < 6; i++ {
			m.SwapProgram(x%n, (x/7)%n)
			x = x*31 + 17
		}
		if err := m.Validate(n); err != nil {
			return false
		}
		inv := m.Inverse(n)
		for q, p := range m {
			if inv[p] != q {
				return false
			}
		}
		// Swapping twice is the identity.
		qa, qb := int(a)%n, int(b)%n
		before := m.Clone()
		m.SwapProgram(qa, qb)
		m.SwapProgram(qa, qb)
		for i := range m {
			if m[i] != before[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
