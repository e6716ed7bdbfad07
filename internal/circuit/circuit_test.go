package circuit

import (
	"math/rand"
	"strings"
	"testing"
)

// paperFig1 builds the circuit of Figure 1(a): H gates plus CNOTs
// g1(q0,q1), g2(q1,q2), g3(q0,q1) ... the exact 1q placement is not
// significant; the 2q skeleton is what the DAG tests rely on.
func paperFig1() *Circuit {
	c := New(3)
	c.MustAppend(
		NewH(0),
		NewCX(0, 1), // g0
		NewH(2),
		NewCX(1, 2), // g1
		NewCX(0, 2), // g2
		NewCX(1, 2), // g3  shares q1,q2 with g1/g3
		NewCX(0, 1), // g4
		NewCX(1, 2), // g5
	)
	return c
}

func TestGateConstructorsAndAccessors(t *testing.T) {
	g := NewCX(2, 5)
	if !g.TwoQubit() || g.Q0 != 2 || g.Q1 != 5 {
		t.Fatalf("bad CX: %+v", g)
	}
	if !g.On(2) || !g.On(5) || g.On(3) {
		t.Error("On() incorrect for CX")
	}
	e := g.Edge()
	if e.U != 2 || e.V != 5 {
		t.Errorf("Edge()=%v", e)
	}
	h := NewH(1)
	if h.TwoQubit() || h.Q1 != -1 {
		t.Fatalf("bad H: %+v", h)
	}
	if len(h.Qubits()) != 1 || h.Qubits()[0] != 1 {
		t.Errorf("H qubits: %v", h.Qubits())
	}
	rz := NewRZ(0, 1.5)
	if rz.Param != 1.5 {
		t.Errorf("RZ param %v", rz.Param)
	}
}

func TestEdgeOnSingleQubitPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Edge on 1q gate did not panic")
		}
	}()
	NewH(0).Edge()
}

func TestAppendValidation(t *testing.T) {
	c := New(2)
	if err := c.Append(NewCX(0, 2)); err == nil {
		t.Error("out-of-range qubit accepted")
	}
	if err := c.Append(Gate{Kind: CX, Q0: 1, Q1: 1}); err == nil {
		t.Error("coincident operands accepted")
	}
	if err := c.Append(NewCX(0, 1), NewH(1)); err != nil {
		t.Fatalf("valid gates rejected: %v", err)
	}
	if c.NumGates() != 2 || c.TwoQubitGateCount() != 1 {
		t.Errorf("counts: gates=%d 2q=%d", c.NumGates(), c.TwoQubitGateCount())
	}
}

func TestCloneIndependence(t *testing.T) {
	c := paperFig1()
	d := c.Clone()
	d.MustAppend(NewX(0))
	if c.NumGates() == d.NumGates() {
		t.Error("clone shares gate slice")
	}
}

func TestSwapCount(t *testing.T) {
	c := New(3)
	c.MustAppend(NewCX(0, 1), NewSwap(1, 2), NewSwap(0, 1), NewCX(0, 2))
	if c.SwapCount() != 2 {
		t.Errorf("SwapCount=%d want 2", c.SwapCount())
	}
}

func TestInteractionGraph(t *testing.T) {
	c := paperFig1()
	ig := c.InteractionGraph()
	if !ig.HasEdge(0, 1) || !ig.HasEdge(1, 2) || !ig.HasEdge(0, 2) {
		t.Fatal("interaction graph missing edges")
	}
	if ig.M() != 3 {
		t.Errorf("interaction edges=%d want 3 (duplicates collapsed)", ig.M())
	}
}

func TestInteractionGraphOfSubset(t *testing.T) {
	c := paperFig1()
	// Only the first two 2q gates: edges (0,1),(1,2).
	idx := c.TwoQubitIndices()[:2]
	ig := c.InteractionGraphOf(idx)
	if ig.M() != 2 || !ig.HasEdge(0, 1) || !ig.HasEdge(1, 2) {
		t.Fatalf("subset interaction graph wrong: %d edges", ig.M())
	}
}

func TestDAGStructure(t *testing.T) {
	c := paperFig1()
	d := NewDAG(c)
	if d.N() != 6 {
		t.Fatalf("DAG nodes=%d want 6", d.N())
	}
	roots := d.Roots()
	if len(roots) != 1 || roots[0] != 0 {
		t.Fatalf("roots=%v want [0]", roots)
	}
	// g1 (node 1, cx q1,q2) must have node 0 as predecessor (shares q1).
	if len(d.Preds[1]) != 1 || d.Preds[1][0] != 0 {
		t.Errorf("preds of node 1: %v", d.Preds[1])
	}
}

func TestDAGNoDuplicateEdges(t *testing.T) {
	c := New(2)
	c.MustAppend(NewCX(0, 1), NewCX(0, 1)) // shares both qubits
	d := NewDAG(c)
	if len(d.Succs[0]) != 1 || len(d.Preds[1]) != 1 {
		t.Fatalf("duplicate DAG edge: succs=%v preds=%v", d.Succs[0], d.Preds[1])
	}
}

func TestDAGAncestorsChain(t *testing.T) {
	// A chain g0 -> g1 -> g2 sharing one qubit throughout.
	c := New(4)
	c.MustAppend(NewCX(0, 1), NewCX(1, 2), NewCX(2, 3))
	r := NewDAG(c).Ancestors()
	if !r.MustPrecede(0, 1) || !r.MustPrecede(1, 2) || !r.MustPrecede(0, 2) {
		t.Error("transitive ancestry missing")
	}
	if r.MustPrecede(2, 0) || r.MustPrecede(0, 0) {
		t.Error("spurious ancestry")
	}
	if r.MustPrecede(2, 2) {
		t.Error("a gate precedes itself")
	}
}

func TestDAGParallelGatesIndependent(t *testing.T) {
	c := New(4)
	c.MustAppend(NewCX(0, 1), NewCX(2, 3))
	r := NewDAG(c).Ancestors()
	if r.MustPrecede(0, 1) || r.MustPrecede(1, 0) {
		t.Error("disjoint gates should be unordered")
	}
}

func TestLayers(t *testing.T) {
	c := New(4)
	c.MustAppend(NewCX(0, 1), NewCX(2, 3), NewCX(1, 2), NewCX(0, 1))
	d := NewDAG(c)
	layers := d.Layers()
	if len(layers) != 3 {
		t.Fatalf("layers=%d want 3: %v", len(layers), layers)
	}
	if len(layers[0]) != 2 {
		t.Errorf("layer 0 size %d want 2", len(layers[0]))
	}
	if d.Depth() != 3 {
		t.Errorf("Depth=%d want 3", d.Depth())
	}
}

func TestEmptyDAG(t *testing.T) {
	c := New(3)
	c.MustAppend(NewH(0))
	d := NewDAG(c)
	if d.N() != 0 || d.Depth() != 0 || len(d.Roots()) != 0 {
		t.Error("empty DAG not empty")
	}
}

// Property: ancestors computed by bitset sweep match a naive DFS.
func TestAncestorsMatchDFS(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 30; iter++ {
		nq := 4 + rng.Intn(4)
		c := New(nq)
		for i := 0; i < 25; i++ {
			a := rng.Intn(nq)
			b := rng.Intn(nq)
			if a == b {
				continue
			}
			c.MustAppend(NewCX(a, b))
		}
		d := NewDAG(c)
		r := d.Ancestors()
		// Naive reachability.
		n := d.N()
		reach := make([][]bool, n)
		for v := 0; v < n; v++ {
			reach[v] = make([]bool, n)
			var dfs func(int)
			dfs = func(u int) {
				for _, p := range d.Preds[u] {
					if !reach[v][p] {
						reach[v][p] = true
						dfs(p)
					}
				}
			}
			dfs(v)
		}
		for v := 0; v < n; v++ {
			for u := 0; u < n; u++ {
				if reach[v][u] != r.MustPrecede(u, v) {
					t.Fatalf("iter %d: ancestry mismatch u=%d v=%d", iter, u, v)
				}
			}
		}
	}
}

// --- QASM ---

// qasmRoundTripCircuit uses every gate kind of the vocabulary once.
func qasmRoundTripCircuit() *Circuit {
	c := New(4)
	c.MustAppend(
		NewH(0), NewX(3), NewRZ(2, 0.25),
		NewCX(0, 1), Gate{Kind: CZ, Q0: 1, Q1: 2}, NewSwap(2, 3),
	)
	return c
}

func TestQASMRoundTrip(t *testing.T) {
	c := qasmRoundTripCircuit()
	text := QASMString(c)
	got, err := ParseQASM(strings.NewReader(text))
	if err != nil {
		t.Fatalf("ParseQASM: %v\n%s", err, text)
	}
	if got.NumQubits != c.NumQubits || got.NumGates() != c.NumGates() {
		t.Fatalf("round trip size mismatch: %d/%d vs %d/%d",
			got.NumQubits, got.NumGates(), c.NumQubits, c.NumGates())
	}
	for i := range c.Gates {
		a, b := c.Gates[i], got.Gates[i]
		if a.Kind != b.Kind || a.Q0 != b.Q0 || (a.TwoQubit() && a.Q1 != b.Q1) || a.Param != b.Param {
			t.Fatalf("gate %d mismatch: %v vs %v", i, a, b)
		}
	}
}

// qasmToleranceSrc exercises the parser's tolerance: comments, shared
// lines, ignored statements, pi angles and operand spacing.
const qasmToleranceSrc = `
OPENQASM 2.0;
include "qelib1.inc";
// a comment line
qreg q[3]; creg c[3];
h q[0]; cx q[0],q[1];
barrier q[0],q[1];
rz(pi/2) q[2];
rz(-pi) q[1];
measure q[0] -> c[0];
swap q[1], q[2];
`

func TestQASMParserTolerance(t *testing.T) {
	c, err := ParseQASM(strings.NewReader(qasmToleranceSrc))
	if err != nil {
		t.Fatal(err)
	}
	if c.NumQubits != 3 {
		t.Errorf("qubits=%d", c.NumQubits)
	}
	if c.NumGates() != 5 {
		t.Errorf("gates=%d want 5 (h, cx, rz, rz, swap)", c.NumGates())
	}
	if c.Gates[2].Kind != RZ || c.Gates[2].Param <= 1.5 || c.Gates[2].Param >= 1.6 {
		t.Errorf("rz(pi/2) parsed as %v", c.Gates[2])
	}
	if c.Gates[3].Param >= 0 {
		t.Errorf("rz(-pi) parsed as %v", c.Gates[3])
	}
}

// qasmRejects are malformed inputs ParseQASM must refuse.
var qasmRejects = []string{
	"cx q[0],q[1];",               // gate before qreg
	"qreg q[2]; cx q[0],q[5];",    // out of range
	"qreg q[2]; qreg r[2];",       // two registers
	"qreg q[2]; frobnicate q[0];", // unknown gate
	"qreg q[2]; cx q[0];",         // wrong arity
	"qreg q[2]; h q[0],q[1];",     // wrong arity
	"qreg q[2]; rz(oops) q[0];",   // bad angle
	"qreg q[2]; cx r[0],q[1];",    // register mismatch
	"qreg q[x];",                  // bad size
	"",                            // no qreg at all
	"qreg q[2]; rz(1.0 q[0];",     // unterminated params
	"qreg q[2]; cx q[0,q[1];",     // malformed operand
}

func TestQASMParserErrors(t *testing.T) {
	for _, src := range qasmRejects {
		if _, err := ParseQASM(strings.NewReader(src)); err == nil {
			t.Errorf("accepted malformed input %q", src)
		}
	}
}

// Property: random circuits round-trip through QASM byte-identically at
// the gate level.
func TestQASMRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 40; iter++ {
		nq := 2 + rng.Intn(6)
		c := New(nq)
		for i := 0; i < 30; i++ {
			switch rng.Intn(5) {
			case 0:
				c.MustAppend(NewH(rng.Intn(nq)))
			case 1:
				c.MustAppend(NewX(rng.Intn(nq)))
			case 2:
				c.MustAppend(NewRZ(rng.Intn(nq), float64(rng.Intn(100))/16))
			default:
				a, b := rng.Intn(nq), rng.Intn(nq)
				if a == b {
					continue
				}
				if rng.Intn(2) == 0 {
					c.MustAppend(NewCX(a, b))
				} else {
					c.MustAppend(NewSwap(a, b))
				}
			}
		}
		got, err := ParseQASM(strings.NewReader(QASMString(c)))
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		if got.NumGates() != c.NumGates() {
			t.Fatalf("iter %d: gate count %d vs %d", iter, got.NumGates(), c.NumGates())
		}
		for i := range c.Gates {
			a, b := c.Gates[i], got.Gates[i]
			if a.Kind != b.Kind || a.Q0 != b.Q0 || (a.TwoQubit() && a.Q1 != b.Q1) {
				t.Fatalf("iter %d gate %d: %v vs %v", iter, i, a, b)
			}
		}
	}
}

func TestDepth(t *testing.T) {
	c := New(4)
	if c.Depth() != 0 {
		t.Fatal("empty circuit depth != 0")
	}
	c.MustAppend(NewCX(0, 1), NewCX(2, 3)) // parallel
	if c.Depth() != 1 {
		t.Fatalf("parallel depth=%d want 1", c.Depth())
	}
	c.MustAppend(NewCX(1, 2)) // joins both
	if c.Depth() != 2 {
		t.Fatalf("depth=%d want 2", c.Depth())
	}
	c.MustAppend(NewH(0)) // parallel with the join on q0? q0 last used step 1
	if c.Depth() != 2 {
		t.Fatalf("1q gate extended depth: %d", c.Depth())
	}
	c.MustAppend(NewH(2)) // q2 last used step 2
	if c.Depth() != 3 {
		t.Fatalf("depth=%d want 3", c.Depth())
	}
}

func TestDepthMatchesDAGForTwoQubitOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for iter := 0; iter < 20; iter++ {
		nq := 4 + rng.Intn(4)
		c := New(nq)
		for i := 0; i < 30; i++ {
			a, b := rng.Intn(nq), rng.Intn(nq)
			if a != b {
				c.MustAppend(NewCX(a, b))
			}
		}
		if got, want := c.Depth(), NewDAG(c).Depth(); got != want {
			t.Fatalf("iter %d: circuit depth %d vs DAG depth %d", iter, got, want)
		}
	}
}
