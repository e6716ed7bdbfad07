package circuit

import (
	"strings"
	"testing"
	"testing/quick"
)

// quickCircuit derives a structurally valid circuit from arbitrary bytes:
// every byte pair becomes a gate choice. This gives testing/quick a
// generator over the circuit IR itself.
func quickCircuit(data []byte, nq int) *Circuit {
	c := New(nq)
	for i := 0; i+2 < len(data); i += 3 {
		a := int(data[i]) % nq
		b := int(data[i+1]) % nq
		switch data[i+2] % 5 {
		case 0:
			c.MustAppend(NewH(a))
		case 1:
			c.MustAppend(NewX(a))
		case 2:
			c.MustAppend(NewRZ(a, float64(data[i+2])/16))
		default:
			if a != b {
				c.MustAppend(NewCX(a, b))
			}
		}
	}
	return c
}

// Property: QASM round trip preserves every gate of any derived circuit.
func TestQuickQASMRoundTrip(t *testing.T) {
	f := func(data []byte) bool {
		c := quickCircuit(data, 6)
		back, err := ParseQASM(strings.NewReader(QASMString(c)))
		if err != nil {
			return false
		}
		if back.NumGates() != c.NumGates() || back.NumQubits != c.NumQubits {
			return false
		}
		for i := range c.Gates {
			a, b := c.Gates[i], back.Gates[i]
			if a.Kind != b.Kind || a.Q0 != b.Q0 || (a.TwoQubit() && a.Q1 != b.Q1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: the DAG of any derived circuit is acyclic and respects
// per-qubit order — every gate's predecessors appear earlier in circuit
// order, and gates sharing a qubit are always comparable.
func TestQuickDAGInvariants(t *testing.T) {
	f := func(data []byte) bool {
		c := quickCircuit(data, 5)
		d := NewDAG(c)
		for v := 0; v < d.N(); v++ {
			for _, p := range d.Preds[v] {
				if p >= v {
					return false // circuit order is a topological order
				}
			}
		}
		r := d.Ancestors()
		for v := 0; v < d.N(); v++ {
			if r.MustPrecede(v, v) {
				return false // irreflexive
			}
			for u := 0; u < v; u++ {
				gu, gv := d.Gate(u), d.Gate(v)
				shared := gu.On(gv.Q0) || gu.On(gv.Q1)
				if shared && !r.MustPrecede(u, v) {
					return false // same-qubit gates must be ordered
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
