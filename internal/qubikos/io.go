package qubikos

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"

	"repro/internal/circuit"
)

// Instance is the serialized form of a benchmark: the circuit as
// OpenQASM plus this JSON sidecar. It carries everything an evaluation
// needs (the claimed optimum, the planted mapping and swap schedule),
// and everything the optimality certificate needs: the witness proves
// the upper bound and CutChain re-derives the lower bound from the
// circuit, so no Section metadata is serialized.
//
// This is also the per-instance format of the content-addressed suite
// store (package suite), which relies on WriteInstance being
// deterministic: for a fixed benchmark the emitted bytes are identical
// across runs and machines. docs/suite-format.md specifies the schema.
// family.ReadInstance reads these files back.
type Instance struct {
	Device         string   `json:"device"`
	OptimalSwaps   int      `json:"optimal_swaps"`
	TwoQubitGates  int      `json:"two_qubit_gates"`
	TotalGates     int      `json:"total_gates"`
	Seed           int64    `json:"seed"`
	InitialMapping []int    `json:"initial_mapping"`
	SwapSchedule   [][2]int `json:"swap_schedule_program_qubits"`
}

// WriteInstance serializes a benchmark to the directory as three files:
// <base>.qasm (the circuit), <base>.solution.qasm (the known-optimal
// transpilation), and <base>.json (the sidecar). It returns the sidecar.
// The output is byte-deterministic in the benchmark — the suite store's
// content addressing depends on that.
func WriteInstance(dir, base string, b *Benchmark) (*Instance, error) {
	if err := writeQASMFile(filepath.Join(dir, base+".qasm"), b.Circuit); err != nil {
		return nil, err
	}
	if err := writeQASMFile(filepath.Join(dir, base+".solution.qasm"), b.Solution.Transpiled); err != nil {
		return nil, err
	}
	schedule := make([][2]int, 0, len(b.Sections))
	for _, sec := range b.Sections {
		schedule = append(schedule, sec.SwapProg)
	}
	inst := &Instance{
		Device:         b.Device.Name(),
		OptimalSwaps:   b.OptSwaps,
		TwoQubitGates:  b.Circuit.TwoQubitGateCount(),
		TotalGates:     b.Circuit.NumGates(),
		Seed:           b.Seed,
		InitialMapping: b.InitialMapping,
		SwapSchedule:   schedule,
	}
	f, err := os.Create(filepath.Join(dir, base+".json"))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(inst); err != nil {
		return nil, err
	}
	return inst, nil
}

func writeQASMFile(path string, c *circuit.Circuit) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	var w io.Writer = f
	return circuit.WriteQASM(w, c)
}
