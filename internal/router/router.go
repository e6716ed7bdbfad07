// Package router defines the shared vocabulary of quantum layout
// synthesis tools: qubit mappings, transpiled-circuit results, the Router
// interface implemented by every QLS tool in this repository, an
// independent validator that audits any result against the device's
// connectivity and the circuit's gate dependencies, and Guard, the one
// fault-isolation guard every evaluation cell and portfolio racer runs
// through.
package router

import (
	"context"
	"fmt"
	"math"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/pool"
)

// Mapping assigns program qubits to physical qubits: Mapping[q] = p.
// A mapping used by QLS must be injective; on QUBIKOS benchmarks it is a
// bijection (|Q| = |P|).
type Mapping []int

// IdentityMapping returns the mapping q -> q for n qubits.
func IdentityMapping(n int) Mapping {
	m := make(Mapping, n)
	for i := range m {
		m[i] = i
	}
	return m
}

// Clone returns a copy of the mapping.
func (m Mapping) Clone() Mapping {
	c := make(Mapping, len(m))
	copy(c, m)
	return c
}

// Inverse returns the physical-to-program inverse over nPhys physical
// qubits, with -1 for unoccupied physical qubits.
func (m Mapping) Inverse(nPhys int) []int {
	inv := make([]int, nPhys)
	for i := range inv {
		inv[i] = -1
	}
	for q, p := range m {
		inv[p] = q
	}
	return inv
}

// Validate checks that the mapping is injective and within range.
func (m Mapping) Validate(nPhys int) error {
	seen := make([]bool, nPhys)
	for q, p := range m {
		if p < 0 || p >= nPhys {
			return fmt.Errorf("router: qubit %d mapped to out-of-range physical %d", q, p)
		}
		if seen[p] {
			return fmt.Errorf("router: physical qubit %d assigned twice", p)
		}
		seen[p] = true
	}
	return nil
}

// SwapProgram applies a SWAP expressed on program qubits a,b: their
// physical locations are exchanged.
func (m Mapping) SwapProgram(a, b int) { m[a], m[b] = m[b], m[a] }

// Result is the output of a QLS tool: the transpiled circuit (original
// gates in their original relative order, with SWAP gates inserted,
// expressed on program qubits) plus the initial mapping that makes it
// executable.
type Result struct {
	Tool           string
	InitialMapping Mapping
	Transpiled     *circuit.Circuit
	SwapCount      int
	// Trials is the number of independent attempts the tool made (for
	// multi-trial tools such as LightSABRE); informational.
	Trials int
}

// RoutedDepth scores the result's transpiled circuit under the
// depth objective: two-qubit ASAP depth with each inserted SWAP costing
// its standard 3-CX decomposition (circuit.SwapDepthCost). Together with
// SwapCount this gives every result both metric values, whichever one
// the benchmark family's known optimum is expressed in.
func (r *Result) RoutedDepth() int { return r.Transpiled.TwoQubitDepth() }

// Router is a quantum layout synthesis tool.
type Router interface {
	// Name identifies the tool in experiment tables.
	Name() string
	// Route maps and routes p's circuit onto p's device, returning a
	// valid Result or an error. It must not mutate p, which callers
	// share across tools, possibly concurrently.
	//
	// A nil initial lets the tool search for a placement (full layout
	// synthesis). A non-nil initial is padded to the device with
	// PadMapping and pinned: placement is not searched, which is how the
	// paper evaluates standalone routers from the provably optimal
	// placement (Section IV-C). A tool that cannot route from a fixed
	// placement returns an error.
	//
	// Route must return promptly (within a bounded number of
	// decision-loop iterations) once ctx is done, reporting ctx.Err() —
	// possibly wrapped — instead of a Result. With a context that never
	// fires, the armed path must match the uncancellable one bit for bit
	// and add no allocations to the warm decision loop (CtxChecker is
	// how implementations meet that bar).
	Route(ctx context.Context, p *Prepared, initial Mapping) (*Result, error)
}

// BudgetedRouter is a tool whose internal parallelism (a trial pool)
// can borrow idle worker slots from a shared pool.Budget.
// The harness attaches one budget per sweep so router-internal workers
// and the cross-instance pool never oversubscribe the machine: the
// sweep pool reserves its slots up front and routers opportunistically
// borrow whatever is idle at Route time (pool.Budget.TryAcquire never
// blocks, so a router that gets nothing simply runs serially). The
// worker count a router ends up with must affect wall-clock time only,
// never results.
type BudgetedRouter interface {
	Router
	// SetWorkerBudget attaches the shared budget. A nil budget detaches
	// it and restores the router's standalone worker policy.
	SetWorkerBudget(b *pool.Budget)
}

// PadMapping extends a mapping to cover nPhys physical qubits by
// assigning ancilla program qubits to the unused locations. Needed when a
// caller-supplied placement covers fewer program qubits than the device.
func PadMapping(m Mapping, nPhys int) Mapping {
	out := m.Clone()
	used := make([]bool, nPhys)
	for _, p := range out {
		if p >= 0 && p < nPhys {
			used[p] = true
		}
	}
	for p := 0; p < nPhys; p++ {
		if !used[p] {
			out = append(out, p)
		}
	}
	return out
}

// Validate audits a Result independently of the tool that produced it:
//
//   - the initial mapping is injective (it may cover ancilla program
//     qubits beyond the original register, which only SWAPs may touch);
//   - the transpiled circuit executes exactly the original gates in an
//     order that preserves each qubit's gate sequence (i.e. a valid
//     topological reordering of the circuit), plus inserted SWAPs;
//   - simulating the mapping through the transpiled circuit, every
//     two-qubit gate (and every SWAP) acts on physically adjacent qubits;
//   - SwapCount matches the number of inserted SWAPs.
//
// Per-qubit order preservation is the exact dependency criterion: two
// gates commute in this IR iff they share no qubit, so an execution is
// valid iff every qubit sees its original gate sequence. Original SWAP
// gates in the input circuit are not supported (QUBIKOS benchmarks never
// contain them), which keeps "inserted SWAP" unambiguous.
func Validate(orig *circuit.Circuit, dev *arch.Device, res *Result) error {
	if res == nil || res.Transpiled == nil {
		return fmt.Errorf("router: nil result")
	}
	if orig.NumQubits > dev.NumQubits() {
		return fmt.Errorf("router: circuit has %d qubits but device only %d", orig.NumQubits, dev.NumQubits())
	}
	for _, g := range orig.Gates {
		if g.Kind == circuit.Swap {
			return fmt.Errorf("router: input circuit contains SWAP gates; validation is ambiguous")
		}
	}
	if len(res.InitialMapping) < orig.NumQubits {
		return fmt.Errorf("router: initial mapping covers %d qubits, circuit has %d",
			len(res.InitialMapping), orig.NumQubits)
	}
	if res.Transpiled.NumQubits != len(res.InitialMapping) {
		return fmt.Errorf("router: transpiled register (%d qubits) disagrees with mapping (%d)",
			res.Transpiled.NumQubits, len(res.InitialMapping))
	}
	if err := res.InitialMapping.Validate(dev.NumQubits()); err != nil {
		return err
	}

	// Per-qubit queues of pending original gate indices. A gate is ready
	// iff it heads the queue of every qubit it touches. Identical-signature
	// gates share qubits and are therefore totally ordered, so greedy
	// matching is unambiguous.
	queues := make([][]int, orig.NumQubits)
	for idx, gate := range orig.Gates {
		for _, q := range gate.Qubits() {
			queues[q] = append(queues[q], idx)
		}
	}
	heads := make([]int, orig.NumQubits) // cursor into each queue

	cur := res.InitialMapping.Clone()
	g := dev.Graph()
	executed := 0
	swaps := 0
	for i, gate := range res.Transpiled.Gates {
		if gate.Kind == circuit.Swap {
			swaps++
			pa, pb := cur[gate.Q0], cur[gate.Q1]
			if !g.HasEdge(pa, pb) {
				return fmt.Errorf("router: SWAP %d on (q%d,q%d) -> (p%d,p%d) not a coupler",
					i, gate.Q0, gate.Q1, pa, pb)
			}
			cur.SwapProgram(gate.Q0, gate.Q1)
			continue
		}
		// Match against the head of q0's queue.
		q0 := gate.Q0
		if q0 >= orig.NumQubits || (gate.TwoQubit() && gate.Q1 >= orig.NumQubits) {
			return fmt.Errorf("router: gate %d (%v) touches ancilla qubits; only SWAPs may", i, gate)
		}
		if heads[q0] >= len(queues[q0]) {
			return fmt.Errorf("router: gate %d (%v): qubit %d has no pending original gates", i, gate, q0)
		}
		oi := queues[q0][heads[q0]]
		want := orig.Gates[oi]
		// Angles compare by bits: a NaN angle, which ParseQASM accepts,
		// never equals itself.
		if gate.Kind != want.Kind || gate.Q0 != want.Q0 || gate.Q1 != want.Q1 ||
			math.Float64bits(gate.Param) != math.Float64bits(want.Param) {
			return fmt.Errorf("router: gate %d is %v, but qubit %d's next original gate is %v", i, gate, q0, want)
		}
		if gate.TwoQubit() {
			q1 := gate.Q1
			if heads[q1] >= len(queues[q1]) || queues[q1][heads[q1]] != oi {
				return fmt.Errorf("router: gate %d (%v) executes before qubit %d's earlier gates", i, gate, q1)
			}
		}
		for _, q := range gate.Qubits() {
			heads[q]++
		}
		executed++
		if gate.TwoQubit() {
			pa, pb := cur[gate.Q0], cur[gate.Q1]
			if !g.HasEdge(pa, pb) {
				return fmt.Errorf("router: gate %d (%v) maps to non-adjacent (p%d,p%d)", i, gate, pa, pb)
			}
		}
	}
	if executed != len(orig.Gates) {
		return fmt.Errorf("router: transpiled circuit executes %d of %d original gates", executed, len(orig.Gates))
	}
	if res.SwapCount != swaps {
		return fmt.Errorf("router: SwapCount=%d but transpiled circuit has %d SWAPs", res.SwapCount, swaps)
	}
	return nil
}

// FinalMapping simulates the result and returns the mapping after all
// SWAPs have been applied. The result must be valid.
func FinalMapping(res *Result) Mapping {
	cur := res.InitialMapping.Clone()
	for _, gate := range res.Transpiled.Gates {
		if gate.Kind == circuit.Swap {
			cur.SwapProgram(gate.Q0, gate.Q1)
		}
	}
	return cur
}
