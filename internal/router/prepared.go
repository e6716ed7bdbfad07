package router

import (
	"fmt"
	"sync"

	"repro/internal/arch"
	"repro/internal/circuit"
)

// Prepared is the shared per-instance routing context: everything a QLS
// tool derives deterministically from (circuit, device) before its own
// search starts — the device-padded register, the two-qubit skeleton,
// the dependency DAG over the skeleton, its ASAP layering, and the
// reversed DAG used by bidirectional mapping passes. Building it costs
// one pass over the circuit per view; evaluation harnesses route the
// same instance with four tools, so preparing once and handing the same
// *Prepared to every tool removes three redundant rebuilds per
// instance.
//
// A Prepared is immutable after construction: tools must treat every
// field and every returned view as read-only, which is what lets one
// instance be shared across concurrently running tools (the harness
// pins this contract with a -race parallel-equals-serial test). The
// lazily built views (DAG, Layers, ReversedDAG) are memoized behind
// sync.Once and are safe for concurrent first use.
type Prepared struct {
	// Circuit is the original instance circuit.
	Circuit *circuit.Circuit
	// Device is the coupling architecture being routed onto.
	Device *arch.Device
	// Padded is the circuit widened to the device register (PadToDevice);
	// on QUBIKOS benchmarks |Q| = |P| and it aliases Circuit.
	Padded *circuit.Circuit
	// Skeleton is Padded restricted to its two-qubit gates
	// (TwoQubitSkeleton) — the object every routing engine operates on.
	Skeleton *circuit.Circuit

	dagOnce sync.Once
	dag     *circuit.DAG

	layersOnce sync.Once
	layers     [][]int

	revOnce sync.Once
	revDAG  *circuit.DAG
}

// Prepare builds the shared routing context for one (circuit, device)
// instance. It fails when the circuit needs more qubits than the device
// has, so every tool's Route can rely on the instance fitting.
func Prepare(c *circuit.Circuit, dev *arch.Device) (*Prepared, error) {
	if c.NumQubits > dev.NumQubits() {
		return nil, fmt.Errorf("router: circuit needs %d qubits, device has %d", c.NumQubits, dev.NumQubits())
	}
	work := PadToDevice(c, dev)
	return &Prepared{
		Circuit:  c,
		Device:   dev,
		Padded:   work,
		Skeleton: TwoQubitSkeleton(work),
	}, nil
}

// DAG returns the dependency DAG over the two-qubit skeleton, built on
// first use and shared afterwards. Callers must not mutate it.
func (p *Prepared) DAG() *circuit.DAG {
	p.dagOnce.Do(func() { p.dag = circuit.NewDAG(p.Skeleton) })
	return p.dag
}

// Layers returns the ASAP layering of DAG(), built on first use and
// shared afterwards. Callers must not mutate the slices.
func (p *Prepared) Layers() [][]int {
	p.layersOnce.Do(func() { p.layers = p.DAG().Layers() })
	return p.layers
}

// ReversedDAG returns the dependency DAG of the reversed skeleton (the
// gates in reverse order), which bidirectional mapping passes (SABRE's
// forward/backward settling) consume. Built on first use and shared.
func (p *Prepared) ReversedDAG() *circuit.DAG {
	p.revOnce.Do(func() { p.revDAG = circuit.NewDAG(ReverseSkeleton(p.Skeleton)) })
	return p.revDAG
}

// ReverseSkeleton returns the circuit's gates in reverse order — the
// dependency DAG reversed — on the same register.
func ReverseSkeleton(c *circuit.Circuit) *circuit.Circuit {
	out := circuit.New(c.NumQubits)
	for i := len(c.Gates) - 1; i >= 0; i-- {
		out.MustAppend(c.Gates[i])
	}
	return out
}
