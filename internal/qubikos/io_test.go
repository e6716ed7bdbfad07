package qubikos_test

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/arch"
	"repro/internal/family"
	"repro/internal/qubikos"
)

// The legacy writer's files are read back by family.ReadInstance, which
// resolves a sidecar without a family field to the qubikos family.
func TestInstanceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	b := generate(t, arch.RigettiAspen4(), qubikos.Options{NumSwaps: 3, TargetTwoQubitGates: 60, SingleQubitGates: 5, Seed: 4})

	inst, err := qubikos.WriteInstance(dir, "case", b)
	if err != nil {
		t.Fatal(err)
	}
	if inst.OptimalSwaps != 3 || inst.Device != "aspen4" {
		t.Fatalf("sidecar: %+v", inst)
	}
	for _, f := range []string{"case.qasm", "case.solution.qasm", "case.json"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Fatalf("missing %s: %v", f, err)
		}
	}

	li, err := family.ReadInstance(dir, "case")
	if err != nil {
		t.Fatal(err)
	}
	if li.Family != family.Qubikos {
		t.Fatalf("legacy sidecar resolved to family %s", li.Family.ID)
	}
	if li.Circuit.NumGates() != b.Circuit.NumGates() {
		t.Fatalf("gates %d vs %d", li.Circuit.NumGates(), b.Circuit.NumGates())
	}
	if li.Circuit.TwoQubitGateCount() != b.Circuit.TwoQubitGateCount() {
		t.Fatal("2q count drift")
	}
	if li.Meta.OptimalSwaps != b.OptSwaps {
		t.Fatal("optimal count drift")
	}
	for q, p := range b.InitialMapping {
		if li.Meta.InitialMapping[q] != p {
			t.Fatal("mapping drift")
		}
	}
}

func TestReadInstanceCatchesTampering(t *testing.T) {
	dir := t.TempDir()
	b := generate(t, arch.Grid3x3(), qubikos.Options{NumSwaps: 2, TargetTwoQubitGates: 30, Seed: 9})
	if _, err := qubikos.WriteInstance(dir, "x", b); err != nil {
		t.Fatal(err)
	}
	// Append a gate to the QASM: the sidecar gate counts must catch it.
	f, err := os.OpenFile(filepath.Join(dir, "x.qasm"), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("cx q[0],q[1];\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := family.ReadInstance(dir, "x"); err == nil {
		t.Fatal("tampered instance accepted")
	}
}

func TestReadInstanceMissingFiles(t *testing.T) {
	if _, err := family.ReadInstance(t.TempDir(), "nope"); err == nil {
		t.Fatal("missing instance accepted")
	}
}

func generate(t *testing.T, dev *arch.Device, opts qubikos.Options) *qubikos.Benchmark {
	t.Helper()
	b, err := qubikos.Generate(dev, opts)
	if err != nil {
		t.Fatalf("Generate(%s, %+v): %v", dev.Name(), opts, err)
	}
	return b
}
