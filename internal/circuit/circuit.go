// Package circuit provides the quantum-circuit intermediate representation
// used by the QUBIKOS generator and the layout-synthesis tools: gates,
// circuits, interaction graphs, the two-qubit gate dependency DAG, ASAP
// layering, and OpenQASM 2.0 serialization.
package circuit

import (
	"fmt"
	"strings"

	"repro/internal/graph"
)

// GateKind enumerates the gate vocabulary. Only connectivity matters to
// layout synthesis, so the set is deliberately small: a generic two-qubit
// entangler (CX), the SWAP used by transpiled circuits, and a few
// single-qubit gates for padding realism.
type GateKind uint8

const (
	// Two-qubit kinds.
	CX GateKind = iota
	CZ
	Swap
	// Single-qubit kinds.
	H
	X
	RZ
)

// String returns the OpenQASM mnemonic of the kind.
func (k GateKind) String() string {
	switch k {
	case CX:
		return "cx"
	case CZ:
		return "cz"
	case Swap:
		return "swap"
	case H:
		return "h"
	case X:
		return "x"
	case RZ:
		return "rz"
	}
	return fmt.Sprintf("gate(%d)", uint8(k))
}

// TwoQubit reports whether the kind acts on two qubits.
func (k GateKind) TwoQubit() bool { return k == CX || k == CZ || k == Swap }

// Gate is a single operation. For single-qubit kinds Q1 is -1. Param is
// only meaningful for RZ and carries an angle in radians.
type Gate struct {
	Kind  GateKind
	Q0    int
	Q1    int
	Param float64
}

// NewCX returns a CX (CNOT) gate on the ordered pair (control, target).
func NewCX(control, target int) Gate { return Gate{Kind: CX, Q0: control, Q1: target} }

// NewSwap returns a SWAP gate on (a, b).
func NewSwap(a, b int) Gate { return Gate{Kind: Swap, Q0: a, Q1: b} }

// NewH returns a Hadamard on q.
func NewH(q int) Gate { return Gate{Kind: H, Q0: q, Q1: -1} }

// NewX returns an X on q.
func NewX(q int) Gate { return Gate{Kind: X, Q0: q, Q1: -1} }

// NewRZ returns an RZ(theta) on q.
func NewRZ(q int, theta float64) Gate { return Gate{Kind: RZ, Q0: q, Q1: -1, Param: theta} }

// TwoQubit reports whether the gate acts on two qubits.
func (g Gate) TwoQubit() bool { return g.Kind.TwoQubit() }

// Qubits returns the qubits the gate acts on (one or two entries).
func (g Gate) Qubits() []int {
	if g.TwoQubit() {
		return []int{g.Q0, g.Q1}
	}
	return []int{g.Q0}
}

// On reports whether the gate acts on qubit q.
func (g Gate) On(q int) bool { return g.Q0 == q || (g.TwoQubit() && g.Q1 == q) }

func (g Gate) String() string {
	if g.TwoQubit() {
		return fmt.Sprintf("%s q%d,q%d", g.Kind, g.Q0, g.Q1)
	}
	if g.Kind == RZ {
		return fmt.Sprintf("rz(%g) q%d", g.Param, g.Q0)
	}
	return fmt.Sprintf("%s q%d", g.Kind, g.Q0)
}

// Circuit is an ordered gate sequence over NumQubits program qubits.
type Circuit struct {
	NumQubits int
	Gates     []Gate
}

// New returns an empty circuit on n qubits.
func New(n int) *Circuit {
	if n < 0 {
		panic("circuit: negative qubit count")
	}
	return &Circuit{NumQubits: n}
}

// Append adds gates to the end of the circuit, validating qubit indices.
func (c *Circuit) Append(gs ...Gate) error {
	for _, g := range gs {
		for _, q := range g.Qubits() {
			if q < 0 || q >= c.NumQubits {
				return fmt.Errorf("circuit: gate %v touches qubit %d outside [0,%d)", g, q, c.NumQubits)
			}
		}
		if g.TwoQubit() && g.Q0 == g.Q1 {
			return fmt.Errorf("circuit: two-qubit gate %v on a single qubit", g)
		}
		c.Gates = append(c.Gates, g)
	}
	return nil
}

// MustAppend is Append but panics on error; for generator-internal use
// where indices are constructed, not parsed.
func (c *Circuit) MustAppend(gs ...Gate) {
	if err := c.Append(gs...); err != nil {
		panic(err)
	}
}

// Clone returns a deep copy.
func (c *Circuit) Clone() *Circuit {
	out := New(c.NumQubits)
	out.Gates = append([]Gate(nil), c.Gates...)
	return out
}

// NumGates returns the total gate count.
func (c *Circuit) NumGates() int { return len(c.Gates) }

// TwoQubitGateCount returns the number of two-qubit gates (SWAPs included).
func (c *Circuit) TwoQubitGateCount() int {
	n := 0
	for _, g := range c.Gates {
		if g.TwoQubit() {
			n++
		}
	}
	return n
}

// SwapCount returns the number of SWAP gates.
func (c *Circuit) SwapCount() int {
	n := 0
	for _, g := range c.Gates {
		if g.Kind == Swap {
			n++
		}
	}
	return n
}

// InteractionGraph returns the graph on program qubits with an edge for
// every qubit pair joined by at least one two-qubit gate (Figure 1(b) of
// the paper).
func (c *Circuit) InteractionGraph() *graph.Graph {
	g := graph.New(c.NumQubits)
	for _, gt := range c.Gates {
		if gt.TwoQubit() && !g.HasEdge(gt.Q0, gt.Q1) {
			if err := g.AddEdge(gt.Q0, gt.Q1); err != nil {
				panic(err) // unreachable: HasEdge checked, indices validated
			}
		}
	}
	return g
}

// InteractionGraphOf builds the interaction graph of a gate subsequence
// identified by indices into c.Gates; single-qubit gates are ignored.
func (c *Circuit) InteractionGraphOf(indices []int) *graph.Graph {
	g := graph.New(c.NumQubits)
	for _, i := range indices {
		gt := c.Gates[i]
		if gt.TwoQubit() && !g.HasEdge(gt.Q0, gt.Q1) {
			if err := g.AddEdge(gt.Q0, gt.Q1); err != nil {
				panic(err)
			}
		}
	}
	return g
}

// SwapDepthCost is the depth one SWAP gate contributes to routed-depth
// scoring: the standard 3-CX decomposition. QUEKO-style depth objectives
// charge transpiled circuits this cost per inserted SWAP.
const SwapDepthCost = 3

// TwoQubitDepth returns the ASAP depth over two-qubit gates only — the
// routed-depth objective of the QUEKO benchmarks and OLSQ. Single-qubit
// gates contribute nothing (hardware executes them between two-qubit
// layers), CX/CZ advance both their qubits one step, and SWAP advances
// them SwapDepthCost steps.
func (c *Circuit) TwoQubitDepth() int {
	last := make([]int, c.NumQubits)
	depth := 0
	for _, g := range c.Gates {
		if !g.TwoQubit() {
			continue
		}
		cost := 1
		if g.Kind == Swap {
			cost = SwapDepthCost
		}
		d := last[g.Q0]
		if last[g.Q1] > d {
			d = last[g.Q1]
		}
		d += cost
		last[g.Q0], last[g.Q1] = d, d
		if d > depth {
			depth = d
		}
	}
	return depth
}

func (c *Circuit) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "circuit(%d qubits, %d gates)", c.NumQubits, len(c.Gates))
	return b.String()
}
