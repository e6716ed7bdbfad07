package family

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/qubikos"
	"repro/internal/router"
)

// QubikosID identifies the paper's swap-optimal family. It is the value
// suite.GeneratorID has carried since the store was introduced, so every
// stored qubikos suite keeps its content address.
const QubikosID = "qubikos-go/1"

// Qubikos is the registered swap-metric family wrapping the paper's
// generator (package qubikos).
var Qubikos = &Family{
	ID:         QubikosID,
	Metric:     Swaps,
	MinOptimal: 0, // 0 degenerates to a SWAP-free, QUEKO-like benchmark
}

// The function fields refer back to Qubikos, so they are attached here
// rather than in the literal (which would be an initialization cycle).
func init() {
	Qubikos.Generate = qubikosGenerate
	Qubikos.Certify = qubikosCertify
	Register(Qubikos)
}

func qubikosGenerate(dev *arch.Device, opts Options) (*Instance, error) {
	b, err := qubikos.Generate(dev, qubikos.Options{
		NumSwaps:            opts.Optimal,
		TargetTwoQubitGates: opts.TargetTwoQubitGates,
		MaxTwoQubitGates:    opts.MaxTwoQubitGates,
		SingleQubitGates:    opts.SingleQubitGates,
		PreferHighDegree:    opts.PreferHighDegree,
		Seed:                opts.Seed,
	})
	if err != nil {
		return nil, err
	}
	schedule := make([][2]int, 0, len(b.Sections))
	for _, sec := range b.Sections {
		schedule = append(schedule, sec.SwapProg)
	}
	return &Instance{
		Family:         Qubikos,
		Device:         dev,
		Circuit:        b.Circuit,
		Solution:       b.Solution,
		InitialMapping: b.InitialMapping,
		Optimal:        b.OptSwaps,
		OptSwaps:       b.OptSwaps,
		SwapSchedule:   schedule,
		Seed:           b.Seed,
	}, nil
}

// qubikosCertify proves the claimed SWAP optimum from the serialized
// form. The sidecar's schedule must have one entry per claimed SWAP, and
// a loaded witness must be a valid transpilation using exactly the
// claimed number of SWAPs (the upper bound). Last, qubikos.CutChain must
// find exactly as many cuts in the circuit (the lower bound, Lemmas 1–3
// and Theorem 4 restated on the dependency DAG), so the check needs no
// generator metadata and no solver. The SAT check in qubikos-verify stays
// an independent second opinion where it finishes.
func qubikosCertify(li *Loaded) error {
	meta := li.Meta
	if m := meta.MetricOf(); m != Swaps {
		return fmt.Errorf("family: qubikos sidecar carries metric %q, want %q", m, Swaps)
	}
	if len(meta.SwapSchedule) != meta.OptimalSwaps {
		return fmt.Errorf("family: swap schedule length %d != claimed optimum %d",
			len(meta.SwapSchedule), meta.OptimalSwaps)
	}
	if li.Solution != nil {
		if li.Solution.SwapCount != meta.OptimalSwaps {
			return fmt.Errorf("family: witness uses %d SWAPs, claimed optimum %d",
				li.Solution.SwapCount, meta.OptimalSwaps)
		}
		if err := router.Validate(li.Circuit, li.Device, li.Solution); err != nil {
			return fmt.Errorf("family: witness transpilation invalid: %w", err)
		}
	}
	if k := len(qubikos.CutChain(li.Circuit, li.Device.Graph())); k != meta.OptimalSwaps {
		return fmt.Errorf("family: cut chain proves %d SWAPs, claimed optimum %d", k, meta.OptimalSwaps)
	}
	return nil
}
