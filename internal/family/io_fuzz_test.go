package family

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/circuit"
)

// FuzzReadInstance writes arbitrary sidecar and circuit bytes to disk and
// reads them back with ReadInstance, which loads every stored instance.
// ReadInstance must never panic, and every instance it accepts must pass
// Check, keep its circuit, bit for bit, through WriteQASM → ParseQASM,
// and run its family's Certify (the cut chain, for swap instances)
// without panicking; Certify may reject it.
//
//	go test ./internal/family -run '^$' -fuzz '^FuzzReadInstance$' -fuzztime 15s
func FuzzReadInstance(f *testing.F) {
	dir := f.TempDir()
	// The instances TestReadInstanceRoundTripBothFamilies stores.
	for _, seed := range []struct {
		name string
		fam  *Family
		opts Options
	}{
		{"qubikos", Qubikos, Options{Optimal: 2, TargetTwoQubitGates: 20, MaxTwoQubitGates: 30, PreferHighDegree: true, Seed: 9}},
		{"queko", QuekoDepth, Options{Optimal: 4, TargetTwoQubitGates: 10, Seed: 9}},
	} {
		name := seed.name
		inst, err := seed.fam.Generate(arch.Grid3x3(), seed.opts)
		if err != nil {
			f.Fatalf("%s: %v", name, err)
		}
		if _, err := WriteInstance(dir, name, inst); err != nil {
			f.Fatalf("%s: %v", name, err)
		}
		sidecar, err := os.ReadFile(filepath.Join(dir, name+".json"))
		if err != nil {
			f.Fatal(err)
		}
		qasm, err := os.ReadFile(filepath.Join(dir, name+".qasm"))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(sidecar, qasm)
	}
	f.Add([]byte(`{"device":"line-3","optimal_swaps":0,"two_qubit_gates":1,"total_gates":2,"initial_mapping":[2,0,1]}`),
		[]byte("qreg q[3]; cx q[0],q[2]; rz(nan) q[1];"))
	f.Add([]byte(`{"device":"grid3x3","family":"queko-depth/1","metric":"swaps"}`), []byte("qreg q[0];"))
	f.Fuzz(func(t *testing.T, sidecar, qasm []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "x.json"), sidecar, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "x.qasm"), qasm, 0o644); err != nil {
			t.Fatal(err)
		}
		li, err := ReadInstance(dir, "x")
		if err != nil {
			return
		}
		if err := li.Check(); err != nil {
			t.Fatalf("accepted instance fails Check: %v", err)
		}
		_ = li.Certify()
		text := circuit.QASMString(li.Circuit)
		back, err := circuit.ParseQASM(strings.NewReader(text))
		if err != nil {
			t.Fatalf("written circuit does not parse: %v\n%s", err, text)
		}
		if back.NumQubits != li.Circuit.NumQubits || len(back.Gates) != len(li.Circuit.Gates) {
			t.Fatalf("round trip gives %d qubits/%d gates, want %d/%d",
				back.NumQubits, len(back.Gates), li.Circuit.NumQubits, len(li.Circuit.Gates))
		}
		for i, g := range li.Circuit.Gates {
			h := back.Gates[i]
			if h.Kind != g.Kind || h.Q0 != g.Q0 || h.Q1 != g.Q1 || math.Float64bits(h.Param) != math.Float64bits(g.Param) {
				t.Fatalf("gate %d: %v round-trips as %v", i, g, h)
			}
		}
	})
}
