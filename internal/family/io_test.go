package family

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/router"
)

// The family writer must keep emitting, for qubikos instances, the
// bytes the original qubikos writer emitted: the content-addressed
// store's checksums (and every suite stored before the family registry)
// depend on them. The digests were recorded from that writer's files
// for this instance.
func TestWriteInstanceBytesMatchLegacyQubikosWriter(t *testing.T) {
	inst, err := Qubikos.Generate(arch.RigettiAspen4(), Options{Optimal: 3, TargetTwoQubitGates: 60, SingleQubitGates: 5, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := WriteInstance(dir, "case", inst); err != nil {
		t.Fatal(err)
	}
	for ext, want := range map[string]string{
		".qasm":          "5d585b5b34159f5c4a59b9320b25cfcef909f1aa2752e59a40e24d7772180640",
		".solution.qasm": "60e54a1ffaaaa2eb3dda9656622fd84a5427b1dc83bbf216757357f007ac02ce",
		".json":          "e02a659e634a20718cd0a6e8bb2b82995dd7b20b61704ca15f95c45565f12789",
	} {
		raw, err := os.ReadFile(filepath.Join(dir, "case"+ext))
		if err != nil {
			t.Fatal(err)
		}
		if sum := sha256.Sum256(raw); hex.EncodeToString(sum[:]) != want {
			t.Errorf("case%s: sha256 %x, want %s", ext, sum, want)
		}
	}
}

// Legacy sidecars (no family/metric fields) must load as qubikos
// instances; depth sidecars round-trip their extra fields.
func TestSidecarFamilyDefaults(t *testing.T) {
	var legacy Sidecar
	if err := json.Unmarshal([]byte(`{"device":"grid3x3","optimal_swaps":2}`), &legacy); err != nil {
		t.Fatal(err)
	}
	if legacy.FamilyID() != QubikosID || legacy.MetricOf() != Swaps || legacy.Optimal() != 2 {
		t.Errorf("legacy sidecar resolved to %s/%s optimal=%d", legacy.FamilyID(), legacy.MetricOf(), legacy.Optimal())
	}

	depth := Sidecar{Family: QuekoDepthID, Metric: string(Depth), OptimalDepth: 9}
	if depth.FamilyID() != QuekoDepthID || depth.MetricOf() != Depth || depth.Optimal() != 9 {
		t.Errorf("depth sidecar resolved to %s/%s optimal=%d", depth.FamilyID(), depth.MetricOf(), depth.Optimal())
	}
}

func TestReadInstanceRoundTripBothFamilies(t *testing.T) {
	dir := t.TempDir()
	for name, gen := range map[string]func() (*Instance, error){
		"qubikos": func() (*Instance, error) {
			return Qubikos.Generate(arch.Grid3x3(), Options{Optimal: 2, TargetTwoQubitGates: 20, MaxTwoQubitGates: 30, PreferHighDegree: true, Seed: 9})
		},
		"queko": func() (*Instance, error) {
			return QuekoDepth.Generate(arch.Grid3x3(), Options{Optimal: 4, TargetTwoQubitGates: 10, Seed: 9})
		},
	} {
		inst, err := gen()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := WriteInstance(dir, name, inst); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		li, err := ReadInstanceWithSolution(dir, name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if li.Family != inst.Family {
			t.Errorf("%s: family %s round-tripped to %s", name, inst.Family.ID, li.Family.ID)
		}
		if li.Meta.Optimal() != inst.Optimal {
			t.Errorf("%s: optimum %d round-tripped to %d", name, inst.Optimal, li.Meta.Optimal())
		}
		if li.Circuit.NumGates() != inst.Circuit.NumGates() {
			t.Errorf("%s: gate count drift", name)
		}
		if li.Solution == nil || li.Solution.SwapCount != inst.Solution.SwapCount {
			t.Errorf("%s: witness swap count drift", name)
		}
		if err := li.Certify(); err != nil {
			t.Errorf("%s: certify: %v", name, err)
		}
	}
}

func TestReadInstanceCatchesTampering(t *testing.T) {
	dir := t.TempDir()
	inst, err := QuekoDepth.Generate(arch.Grid3x3(), Options{Optimal: 3, TargetTwoQubitGates: 10, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := WriteInstance(dir, "x", inst); err != nil {
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
	if _, err := ReadInstance(dir, "x"); err == nil {
		t.Fatal("tampered instance accepted")
	}
}

// A stored instance may claim more SWAPs than its circuit needs and back
// the claim with a valid witness: two back-to-back identical SWAPs cost
// two and change no mapping. Every upper-bound check passes such a claim;
// Certify must reject it because the cut chain proves only the planted n.
func TestQubikosCertifyRejectsInflatedClaim(t *testing.T) {
	dir := t.TempDir()
	dev := arch.RigettiAspen4()
	inst, err := Qubikos.Generate(dev, Options{Optimal: 3, TargetTwoQubitGates: 30, MaxTwoQubitGates: 30, PreferHighDegree: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := WriteInstance(dir, "x", inst); err != nil {
		t.Fatal(err)
	}

	// Two SWAPs on a coupler's occupants under the planted mapping, first
	// in the witness and in its schedule.
	e := dev.Graph().Edges()[0]
	inv := inst.InitialMapping.Inverse(dev.NumQubits())
	pair := [2]int{inv[e.U], inv[e.V]}
	sol := inst.Solution.Transpiled.Clone()
	swap := circuit.NewSwap(pair[0], pair[1])
	sol.Gates = append([]circuit.Gate{swap, swap}, sol.Gates...)
	if err := writeQASMFile(filepath.Join(dir, "x.solution.qasm"), sol); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "x.json"))
	if err != nil {
		t.Fatal(err)
	}
	var sc Sidecar
	if err := json.Unmarshal(raw, &sc); err != nil {
		t.Fatal(err)
	}
	sc.OptimalSwaps += 2
	sc.SwapSchedule = append([][2]int{pair, pair}, sc.SwapSchedule...)
	if raw, err = json.MarshalIndent(sc, "", "  "); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "x.json"), raw, 0o644); err != nil {
		t.Fatal(err)
	}

	li, err := ReadInstanceWithSolution(dir, "x")
	if err != nil {
		t.Fatal(err)
	}
	if li.Solution.SwapCount != 5 || len(li.Meta.SwapSchedule) != 5 {
		t.Fatalf("inflated witness has %d SWAPs and %d scheduled, want 5", li.Solution.SwapCount, len(li.Meta.SwapSchedule))
	}
	if err := router.Validate(li.Circuit, li.Device, li.Solution); err != nil {
		t.Fatalf("inflated witness must stay a valid routing: %v", err)
	}
	err = li.Certify()
	if err == nil || !strings.Contains(err.Error(), "cut chain proves 3 SWAPs, claimed optimum 5") {
		t.Fatalf("Certify(claim 5, optimum 3) = %v, want the cut chain's rejection", err)
	}
}
