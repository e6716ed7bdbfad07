package family

import (
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/router"
)

func TestRegistry(t *testing.T) {
	ids := IDs()
	if len(ids) < 2 {
		t.Fatalf("registry holds %d families, want at least qubikos + queko-depth", len(ids))
	}
	for _, id := range []string{QubikosID, QuekoDepthID} {
		f, err := ByID(id)
		if err != nil {
			t.Fatalf("ByID(%s): %v", id, err)
		}
		if f.ID != id {
			t.Errorf("ByID(%s).ID = %s", id, f.ID)
		}
	}
	_, err := ByID("no-such-family/0")
	if err == nil {
		t.Fatal("unknown family accepted")
	}
	for _, id := range IDs() {
		if !strings.Contains(err.Error(), id) {
			t.Errorf("error %q does not list registered family %s", err, id)
		}
	}
}

func TestResolveShorthands(t *testing.T) {
	for name, want := range map[string]string{
		"qubikos":     QubikosID,
		"qubikos-go":  QubikosID,
		QubikosID:     QubikosID,
		"queko-depth": QuekoDepthID,
		QuekoDepthID:  QuekoDepthID,
	} {
		f, err := Resolve(name)
		if err != nil {
			t.Errorf("Resolve(%q): %v", name, err)
			continue
		}
		if f.ID != want {
			t.Errorf("Resolve(%q) = %s, want %s", name, f.ID, want)
		}
	}
	if _, err := Resolve("warp-core"); err == nil {
		t.Error("unknown shorthand accepted")
	}
}

// TestParseGrid: grid flags parse whole decimal tokens only, so a
// scientific, fractional or suffixed value is an error rather than its
// leading digits, and every value respects the caller's minimum.
func TestParseGrid(t *testing.T) {
	got, err := ParseGrid("5, 10", 1)
	if err != nil || len(got) != 2 || got[0] != 5 || got[1] != 10 {
		t.Fatalf(`ParseGrid("5, 10", 1) = %v, %v; want [5 10]`, got, err)
	}
	if got, err := ParseGrid("0", 0); err != nil || len(got) != 1 || got[0] != 0 {
		t.Fatalf(`ParseGrid("0", 0) = %v, %v; want [0]`, got, err)
	}
	for _, bad := range []struct {
		list string
		min  int
	}{
		{"", 1},
		{"5x", 1},
		{"1e3", 1},
		{"5.9", 1},
		{"5,", 1},
		{"0", 1},
		{"3,2", 3},
	} {
		if got, err := ParseGrid(bad.list, bad.min); err == nil {
			t.Errorf("ParseGrid(%q, %d) = %v, want an error", bad.list, bad.min, got)
		}
	}
}

func TestQubikosFamilyGenerate(t *testing.T) {
	inst, err := Qubikos.Generate(arch.Grid3x3(), Options{
		Optimal:             2,
		TargetTwoQubitGates: 20,
		MaxTwoQubitGates:    30,
		PreferHighDegree:    true,
		Seed:                5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if inst.Optimal != 2 || inst.OptSwaps != 2 || inst.Family != Qubikos {
		t.Fatalf("instance: optimal=%d optswaps=%d family=%v", inst.Optimal, inst.OptSwaps, inst.Family.ID)
	}
	if len(inst.SwapSchedule) != 2 {
		t.Errorf("schedule has %d swaps, want 2", len(inst.SwapSchedule))
	}
	dir := t.TempDir()
	if _, err := WriteInstance(dir, "x", inst); err != nil {
		t.Fatal(err)
	}
	li, err := ReadInstanceWithSolution(dir, "x")
	if err != nil {
		t.Fatal(err)
	}
	if err := li.Certify(); err != nil {
		t.Errorf("certify the written bytes: %v", err)
	}
}

func TestQuekoGenerateDeterministicAndOptimal(t *testing.T) {
	opts := Options{Optimal: 7, TargetTwoQubitGates: 60, SingleQubitGates: 5, Seed: 42}
	a, err := QuekoDepth.Generate(arch.RigettiAspen4(), opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := QuekoDepth.Generate(arch.RigettiAspen4(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if circuit.QASMString(a.Circuit) != circuit.QASMString(b.Circuit) {
		t.Fatal("queko generation not deterministic in the seed")
	}
	if a.Optimal != 7 || a.OptSwaps != 0 {
		t.Fatalf("optimal=%d optswaps=%d, want 7/0", a.Optimal, a.OptSwaps)
	}
	if d := a.Circuit.TwoQubitDepth(); d != 7 {
		t.Fatalf("constructed two-qubit depth %d, want exactly 7", d)
	}
	if a.Solution.SwapCount != 0 {
		t.Fatalf("witness uses %d swaps, want 0", a.Solution.SwapCount)
	}
	if got := a.Circuit.TwoQubitGateCount(); got < 7 || got > 60 {
		t.Errorf("two-qubit gates %d outside [7, 60]", got)
	}
	// Different seeds give different circuits.
	opts.Seed = 43
	c, err := QuekoDepth.Generate(arch.RigettiAspen4(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if circuit.QASMString(a.Circuit) == circuit.QASMString(c.Circuit) {
		t.Error("different seeds produced identical circuits")
	}
}

func TestQuekoGenerateRejectsBadOptions(t *testing.T) {
	if _, err := QuekoDepth.Generate(arch.Grid3x3(), Options{Optimal: 0, Seed: 1}); err == nil {
		t.Error("depth 0 accepted")
	}
	if _, err := QuekoDepth.Generate(arch.Grid3x3(), Options{Optimal: 10, MaxTwoQubitGates: 5, Seed: 1}); err == nil {
		t.Error("backbone exceeding the gate cap accepted")
	}
}

// The padding invariant: layers stay qubit-disjoint, so padding toward a
// large gate target never raises the depth above the constructed optimum.
func TestQuekoPaddingPreservesDepth(t *testing.T) {
	for _, gates := range []int{0, 30, 200, 2000} {
		inst, err := QuekoDepth.Generate(arch.IBMEagle127(), Options{
			Optimal: 9, TargetTwoQubitGates: gates, Seed: 3,
		})
		if err != nil {
			t.Fatalf("gates=%d: %v", gates, err)
		}
		if d := inst.Circuit.TwoQubitDepth(); d != 9 {
			t.Fatalf("gates=%d: depth %d, want 9", gates, d)
		}
	}
}

func TestQuekoCertifyCatchesTampering(t *testing.T) {
	dir := t.TempDir()
	inst, err := QuekoDepth.Generate(arch.Grid3x3(), Options{Optimal: 4, TargetTwoQubitGates: 10, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := WriteInstance(dir, "x", inst); err != nil {
		t.Fatal(err)
	}
	li, err := ReadInstanceWithSolution(dir, "x")
	if err != nil {
		t.Fatal(err)
	}
	if err := li.Certify(); err != nil {
		t.Fatalf("honest instance failed certification: %v", err)
	}

	// A deeper claimed optimum than the circuit supports must be caught.
	tampered := *li
	tampered.Meta.OptimalDepth++
	if err := tampered.Certify(); err == nil {
		t.Error("inflated depth claim certified")
	}
	// A mapping that breaks in-place executability must be caught.
	tampered = *li
	tampered.Meta.InitialMapping = append([]int(nil), li.Meta.InitialMapping...)
	tampered.Meta.InitialMapping[0], tampered.Meta.InitialMapping[8] =
		tampered.Meta.InitialMapping[8], tampered.Meta.InitialMapping[0]
	if err := tampered.Certify(); err == nil {
		t.Error("corrupted mapping certified")
	}
}

func TestMetricAchievedAndRatio(t *testing.T) {
	c := circuit.New(3)
	c.MustAppend(circuit.NewCX(0, 1), circuit.NewSwap(1, 2), circuit.NewCX(0, 1))
	res := &router.Result{Transpiled: c, SwapCount: 1}
	if got := Swaps.Achieved(res); got != 1 {
		t.Errorf("swaps achieved = %d, want 1", got)
	}
	// CX(0,1)=1, SWAP(1,2)=1+3=4, CX(0,1)=depends on qubit 1 at 4 -> 5.
	if got := Depth.Achieved(res); got != 5 {
		t.Errorf("depth achieved = %d, want 5", got)
	}
	if got := Depth.Ratio(5, 4); got != 1.25 {
		t.Errorf("ratio = %v, want 1.25", got)
	}
	// The zero metric scores swaps (legacy items).
	if got := Metric("").Achieved(res); got != 1 {
		t.Errorf("zero-metric achieved = %d, want 1 (swaps)", got)
	}
}
