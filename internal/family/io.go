package family

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/router"
)

// Sidecar is the per-instance JSON metadata written next to the circuit.
// It is the format the content-addressed suite store checksums, so
// WriteInstance must stay byte-deterministic: for a fixed instance the
// emitted bytes are identical across runs and machines.
//
// The legacy fields (through swap_schedule_program_qubits) predate the
// family registry and keep their exact order; qubikos-go/1 instances
// leave the newer fields at their zero values, which omitempty drops, so
// every sidecar byte stored before the registry existed is still what
// this encoder produces. docs/suite-format.md specifies the schema.
type Sidecar struct {
	Device         string   `json:"device"`
	OptimalSwaps   int      `json:"optimal_swaps"`
	TwoQubitGates  int      `json:"two_qubit_gates"`
	TotalGates     int      `json:"total_gates"`
	Seed           int64    `json:"seed"`
	InitialMapping []int    `json:"initial_mapping"`
	SwapSchedule   [][2]int `json:"swap_schedule_program_qubits"`
	// Family is the generating family's registry ID; empty means
	// qubikos-go/1 (sidecars written before the registry existed).
	Family string `json:"family,omitempty"`
	// Metric names the scored metric; empty means swaps.
	Metric string `json:"metric,omitempty"`
	// OptimalDepth is the provably optimal routed two-qubit depth
	// (depth-metric families only).
	OptimalDepth int `json:"optimal_depth,omitempty"`
}

// FamilyID resolves the sidecar's family, defaulting legacy sidecars to
// the qubikos family.
func (s Sidecar) FamilyID() string {
	if s.Family == "" {
		return QubikosID
	}
	return s.Family
}

// MetricOf resolves the sidecar's scored metric, defaulting legacy
// sidecars to Swaps.
func (s Sidecar) MetricOf() Metric {
	if s.Metric == "" {
		return Swaps
	}
	return Metric(s.Metric)
}

// Optimal returns the known-optimal value of the sidecar's scored metric.
func (s Sidecar) Optimal() int {
	if s.MetricOf() == Depth {
		return s.OptimalDepth
	}
	return s.OptimalSwaps
}

// WriteInstance serializes an instance to the directory as three files:
// <base>.qasm (the circuit), <base>.solution.qasm (the known-optimal
// witness transpilation), and <base>.json (the sidecar). It returns the
// sidecar. The output is byte-deterministic in the instance — the suite
// store's checksums depend on that.
func WriteInstance(dir, base string, inst *Instance) (*Sidecar, error) {
	if err := writeQASMFile(filepath.Join(dir, base+".qasm"), inst.Circuit); err != nil {
		return nil, err
	}
	if err := writeQASMFile(filepath.Join(dir, base+".solution.qasm"), inst.Solution.Transpiled); err != nil {
		return nil, err
	}
	sc := inst.sidecar()
	f, err := os.Create(filepath.Join(dir, base+".json"))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(sc); err != nil {
		return nil, err
	}
	return sc, nil
}

// sidecar builds the sidecar WriteInstance serializes for the instance.
func (inst *Instance) sidecar() *Sidecar {
	schedule := inst.SwapSchedule
	if schedule == nil {
		schedule = [][2]int{}
	}
	sc := &Sidecar{
		Device:         inst.Device.Name(),
		OptimalSwaps:   inst.OptSwaps,
		TwoQubitGates:  inst.Circuit.TwoQubitGateCount(),
		TotalGates:     inst.Circuit.NumGates(),
		Seed:           inst.Seed,
		InitialMapping: inst.InitialMapping,
		SwapSchedule:   schedule,
	}
	if inst.Family.ID != QubikosID {
		sc.Family = inst.Family.ID
		sc.Metric = string(inst.Family.Metric)
	}
	if inst.Family.Metric == Depth {
		sc.OptimalDepth = inst.Optimal
	}
	return sc
}

// Loaded pairs a parsed instance with its sidecar, its resolved family,
// and (optionally) its witness transpilation.
type Loaded struct {
	Meta    Sidecar
	Family  *Family
	Device  *arch.Device
	Circuit *circuit.Circuit
	// Solution is the parsed witness transpilation; nil unless the
	// instance was loaded with ReadInstanceWithSolution.
	Solution *router.Result
}

// ReadInstance loads <base>.qasm and <base>.json from the directory,
// resolves the sidecar's family against the registry, and cross-checks
// the sidecar against the circuit.
func ReadInstance(dir, base string) (*Loaded, error) {
	mf, err := os.Open(filepath.Join(dir, base+".json"))
	if err != nil {
		return nil, err
	}
	defer mf.Close()
	var meta Sidecar
	if err := json.NewDecoder(mf).Decode(&meta); err != nil {
		return nil, fmt.Errorf("family: sidecar %s.json: %w", base, err)
	}
	fam, err := ByID(meta.FamilyID())
	if err != nil {
		return nil, fmt.Errorf("family: sidecar %s.json: %w", base, err)
	}
	dev, err := arch.ByName(meta.Device)
	if err != nil {
		return nil, err
	}
	qf, err := os.Open(filepath.Join(dir, base+".qasm"))
	if err != nil {
		return nil, err
	}
	defer qf.Close()
	c, err := circuit.ParseQASM(qf)
	if err != nil {
		return nil, fmt.Errorf("family: %s.qasm: %w", base, err)
	}
	li := &Loaded{Meta: meta, Family: fam, Device: dev, Circuit: c}
	if err := li.Check(); err != nil {
		return nil, err
	}
	return li, nil
}

// ReadInstanceWithSolution is ReadInstance plus the witness: it parses
// <base>.solution.qasm into a router.Result under the sidecar's planted
// mapping, ready for Certify.
func ReadInstanceWithSolution(dir, base string) (*Loaded, error) {
	li, err := ReadInstance(dir, base)
	if err != nil {
		return nil, err
	}
	sf, err := os.Open(filepath.Join(dir, base+".solution.qasm"))
	if err != nil {
		return nil, err
	}
	defer sf.Close()
	sol, err := circuit.ParseQASM(sf)
	if err != nil {
		return nil, fmt.Errorf("family: %s.solution.qasm: %w", base, err)
	}
	li.Solution = &router.Result{
		Tool:           "stored-solution",
		InitialMapping: router.Mapping(li.Meta.InitialMapping).Clone(),
		Transpiled:     sol,
		SwapCount:      sol.SwapCount(),
	}
	return li, nil
}

// Check cross-validates the sidecar against the circuit: gate counts,
// register width, mapping well-formedness, and that the claimed optimum
// is at least the family's minimum.
func (li *Loaded) Check() error {
	if li.Circuit.NumQubits > li.Device.NumQubits() {
		return fmt.Errorf("family: circuit register %d exceeds device %s", li.Circuit.NumQubits, li.Meta.Device)
	}
	if got := li.Circuit.TwoQubitGateCount(); got != li.Meta.TwoQubitGates {
		return fmt.Errorf("family: sidecar claims %d two-qubit gates, circuit has %d", li.Meta.TwoQubitGates, got)
	}
	if got := li.Circuit.NumGates(); got != li.Meta.TotalGates {
		return fmt.Errorf("family: sidecar claims %d gates, circuit has %d", li.Meta.TotalGates, got)
	}
	if li.Meta.MetricOf() != li.Family.Metric {
		return fmt.Errorf("family: sidecar metric %q disagrees with family %s (%q)",
			li.Meta.MetricOf(), li.Family.ID, li.Family.Metric)
	}
	if opt := li.Meta.Optimal(); opt < li.Family.MinOptimal {
		return fmt.Errorf("family: claimed optimum %d below family minimum %d", opt, li.Family.MinOptimal)
	}
	m := router.Mapping(li.Meta.InitialMapping)
	if len(m) != li.Circuit.NumQubits {
		return fmt.Errorf("family: mapping covers %d qubits, circuit has %d", len(m), li.Circuit.NumQubits)
	}
	return m.Validate(li.Device.NumQubits())
}

// Certify runs the family's structural optimality certificate on the
// loaded instance.
func (li *Loaded) Certify() error { return li.Family.Certify(li) }

func writeQASMFile(path string, c *circuit.Circuit) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return circuit.WriteQASM(f, c)
}
