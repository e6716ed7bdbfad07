package router

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/circuit"
)

// WeaveSingleQubitGates merges the original circuit's single-qubit gates
// into a routed skeleton. The skeleton must contain exactly the original
// two-qubit gates in some dependency-valid order (per-qubit order
// preserved) plus inserted SWAP gates. Every QLS tool in this repository
// routes only the two-qubit skeleton and then weaves the single-qubit
// gates back in with this helper. A malformed skeleton is an error,
// never a panic.
//
// A single-qubit gate is emitted as soon as every original gate that
// precedes it on its qubit has been emitted, which preserves each qubit's
// original gate sequence exactly.
func WeaveSingleQubitGates(orig, skeleton *circuit.Circuit) (*circuit.Circuit, error) {
	n := orig.NumQubits
	if skeleton.NumQubits != n {
		return nil, fmt.Errorf("router: weave qubit count mismatch: %d vs %d", skeleton.NumQubits, n)
	}
	// Per-qubit queues over ALL original gates, flattened: qubit q's
	// gate indices, in circuit order, are queue[start[q]:start[q+1]], and
	// head[q] is the position of its next unwoven gate.
	start := make([]int32, n+1)
	singles := 0
	for i, g := range orig.Gates {
		if !onDistinctQubits(g, n) {
			return nil, fmt.Errorf("router: original gate %d (%v) is not on distinct qubits of the %d-qubit register", i, g, n)
		}
		start[g.Q0+1]++
		if g.TwoQubit() {
			start[g.Q1+1]++
		} else {
			singles++
		}
	}
	for q := 0; q < n; q++ {
		start[q+1] += start[q]
	}
	queue := make([]int32, start[n])
	head := make([]int32, n)
	copy(head, start)
	for i, g := range orig.Gates {
		queue[head[g.Q0]] = int32(i)
		head[g.Q0]++
		if g.TwoQubit() {
			queue[head[g.Q1]] = int32(i)
			head[g.Q1]++
		}
	}
	copy(head, start)

	// A well-formed skeleton weaves into its own gates plus every single.
	gates := make([]circuit.Gate, 0, len(skeleton.Gates)+singles)
	emit1qChain := func(q int) {
		for ; head[q] < start[q+1]; head[q]++ {
			g := orig.Gates[queue[head[q]]]
			if g.TwoQubit() {
				return
			}
			gates = append(gates, g)
		}
	}
	for q := 0; q < n; q++ {
		emit1qChain(q)
	}
	for i, g := range skeleton.Gates {
		if !g.TwoQubit() {
			return nil, fmt.Errorf("router: skeleton gate %d (%v) is single-qubit; weave expects a 2q+SWAP skeleton", i, g)
		}
		if !onDistinctQubits(g, n) {
			return nil, fmt.Errorf("router: skeleton gate %d (%v) is not on distinct qubits of the %d-qubit register", i, g, n)
		}
		if g.Kind == circuit.Swap {
			gates = append(gates, g)
			continue
		}
		// The head of both queues must be this very gate.
		for _, q := range [2]int{g.Q0, g.Q1} {
			if head[q] == start[q+1] {
				return nil, fmt.Errorf("router: skeleton gate %d (%v): no pending original gate on q%d", i, g, q)
			}
			w := orig.Gates[queue[head[q]]]
			if w.Kind != g.Kind || w.Q0 != g.Q0 || w.Q1 != g.Q1 {
				return nil, fmt.Errorf("router: skeleton gate %d (%v) does not match q%d's next original gate (%v)", i, g, q, w)
			}
		}
		gates = append(gates, g)
		head[g.Q0]++
		head[g.Q1]++
		emit1qChain(g.Q0)
		emit1qChain(g.Q1)
	}
	for q := 0; q < n; q++ {
		if left := start[q+1] - head[q]; left != 0 {
			return nil, fmt.Errorf("router: weave left %d original gates pending on q%d", left, q)
		}
	}
	return &circuit.Circuit{NumQubits: n, Gates: gates}, nil
}

// onDistinctQubits reports whether g's qubits lie in an n-qubit register
// and, for a two-qubit gate, differ — the checks circuit.Append makes.
func onDistinctQubits(g circuit.Gate, n int) bool {
	if g.Q0 < 0 || g.Q0 >= n {
		return false
	}
	return !g.TwoQubit() || (g.Q1 >= 0 && g.Q1 < n && g.Q1 != g.Q0)
}

// TwoQubitSkeleton returns a copy of the circuit containing only its
// two-qubit gates, which is what the routing engines operate on.
func TwoQubitSkeleton(c *circuit.Circuit) *circuit.Circuit {
	out := circuit.New(c.NumQubits)
	out.Gates = make([]circuit.Gate, 0, c.TwoQubitGateCount())
	for _, g := range c.Gates {
		if g.TwoQubit() {
			out.MustAppend(g)
		}
	}
	return out
}

// PadToDevice widens the circuit's qubit register to the device size by
// appending ancilla program qubits (no gates touch them). Routers pad
// before routing so that every physical qubit has an occupant and SWAPs
// through otherwise-empty locations stay expressible; on QUBIKOS
// benchmarks |Q| already equals |P| and this is the identity.
func PadToDevice(c *circuit.Circuit, dev *arch.Device) *circuit.Circuit {
	if c.NumQubits >= dev.NumQubits() {
		return c
	}
	out := circuit.New(dev.NumQubits())
	out.Gates = append(out.Gates, c.Gates...)
	return out
}
