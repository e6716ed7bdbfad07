package qubikos_test

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/arch"
	"repro/internal/family"
)

// A qubikos instance on disk whose QASM gained a gate must be rejected
// by family.ReadInstance: the sidecar's gate counts catch it.
func TestReadInstanceCatchesTampering(t *testing.T) {
	dir := t.TempDir()
	inst, err := family.Qubikos.Generate(arch.Grid3x3(), family.Options{Optimal: 2, TargetTwoQubitGates: 30, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := family.WriteInstance(dir, "x", inst); err != nil {
		t.Fatal(err)
	}
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
