package qubikos

import (
	"fmt"
	"math/bits"

	"repro/internal/circuit"
	"repro/internal/graph"
	"repro/internal/router"
)

// Verify checks a generated benchmark's claimed optimum from its circuit
// and solution alone, the way the family certificate checks a stored
// instance: the bundled solution is a valid transpilation using exactly
// OptSwaps SWAPs (the upper bound), and CutChain finds OptSwaps cuts (the
// lower bound). The olsq package provides an independent exact check for
// small instances.
func Verify(b *Benchmark) error {
	if b == nil || b.Circuit == nil || b.Solution == nil {
		return fmt.Errorf("qubikos: nil benchmark")
	}
	n := b.OptSwaps
	if b.Solution.SwapCount != n {
		return fmt.Errorf("qubikos: solution uses %d swaps, claimed optimum %d", b.Solution.SwapCount, n)
	}
	if err := router.Validate(b.Circuit, b.Device, b.Solution); err != nil {
		return fmt.Errorf("qubikos: solution invalid: %w", err)
	}
	if k := len(CutChain(b.Circuit, b.Device.Graph())); k != n {
		return fmt.Errorf("qubikos: cut chain proves %d SWAPs, claimed optimum %d", k, n)
	}
	return nil
}

// CutChain returns cut gates c1 ≺ c2 ≺ … ≺ ck of the circuit's two-qubit
// dependency DAG, as indices into c.Gates, that prove every routing of c
// on the coupling graph inserts at least k SWAPs. It restates the paper's
// Lemmas 1–3 and Theorem 4 (Section III-D) on the circuit alone.
//
// Window i holds every two-qubit gate h with c(i-1) ≺ h ≼ ci (window 1
// has no lower cut), and every window's interaction graph fails
// graph.EmbeddingBlocked's degree test against the coupling graph. A
// routing with no SWAP between executing c(i-1) and ci would run all of
// window i under one mapping, which the degree test rules out. Those
// intervals are disjoint, so the routing needs at least k SWAPs.
//
// The scan runs in circuit order: the next cut is the first descendant of
// the previous cut whose window is blocked. On a generated benchmark the
// cuts are the sections' special gates. Memory is the DAG's ancestor
// closure (n²/64 words for n two-qubit gates) plus tables linear in n and
// in the register, so a wide device costs no register² table.
func CutChain(c *circuit.Circuit, coupling *graph.Graph) []int {
	dag := circuit.NewDAG(c)
	n := dag.N()
	reach := dag.Ancestors()
	target := coupling.DegreeTail()

	// pair[v] numbers node v's qubit pair, so a window counts each
	// interaction-graph edge once: stamp[p] is the last candidate (node
	// plus one) that counted pair p.
	pair := make([]int32, n)
	ids := make(map[[2]int]int32, n)
	for v := range n {
		g := dag.Gate(v)
		key := [2]int{min(g.Q0, g.Q1), max(g.Q0, g.Q1)}
		if _, ok := ids[key]; !ok {
			ids[key] = int32(len(ids))
		}
		pair[v] = ids[key]
	}
	stamp := make([]int32, len(ids))
	deg := make([]int, c.NumQubits)
	var touched, tail []int

	var cuts []int
	desc := reach.Descendants(-1)
	lo := 0 // word holding the first node after the previous cut
	for v := range n {
		if !desc.Has(v) {
			continue
		}
		// The window is Anc[v] ∧ Desc[previous cut], plus v itself.
		mark := int32(v + 1)
		touched = touched[:0]
		count := func(h int) {
			if p := pair[h]; stamp[p] != mark {
				stamp[p] = mark
				g := dag.Gate(h)
				for _, q := range [2]int{g.Q0, g.Q1} {
					if deg[q] == 0 {
						touched = append(touched, q)
					}
					deg[q]++
				}
			}
		}
		count(v)
		anc := reach.Anc[v]
		for w := lo; w <= v>>6; w++ {
			for set := anc[w] & desc[w]; set != 0; set &= set - 1 {
				count(w<<6 | bits.TrailingZeros64(set))
			}
		}
		// The window's degree tail (see graph.DegreeTail); the degrees
		// are zeroed for the next window as they are read.
		maxD := 0
		for _, q := range touched {
			maxD = max(maxD, deg[q])
		}
		tail = append(tail[:0], make([]int, maxD+1)...)
		for _, q := range touched {
			tail[deg[q]]++
			deg[q] = 0
		}
		for d := maxD - 1; d >= 0; d-- {
			tail[d] += tail[d+1]
		}
		if graph.TailBlocked(tail, target) {
			cuts = append(cuts, dag.GateIndex[v])
			desc = reach.Descendants(v)
			lo = (v + 1) >> 6
		}
	}
	return cuts
}
