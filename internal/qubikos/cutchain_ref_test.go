package qubikos_test

import (
	"fmt"

	"repro/internal/circuit"
	"repro/internal/graph"
)

// A slow reference for qubikos.CutChain and an independent checker of its
// output. Both derive precedence from the gate list with plain boolean
// rows and count degrees on the interaction graph itself, sharing no code
// with the finder's DAG bitsets, edge stamps or degree tails.

// refDAG is the two-qubit dependency order of a circuit: gate ordinal j
// is the j-th two-qubit gate, and anc[j][i] reports that ordinal i must
// execute before ordinal j.
type refDAG struct {
	pos []int    // ordinal -> index into Circuit.Gates
	ord []int    // gate index -> ordinal, -1 for single-qubit gates
	anc [][]bool // anc[j] has length j
}

func newRefDAG(c *circuit.Circuit) *refDAG {
	r := &refDAG{ord: make([]int, len(c.Gates))}
	last := map[int]int{} // qubit -> ordinal of the last two-qubit gate on it
	for gi, g := range c.Gates {
		r.ord[gi] = -1
		if !g.TwoQubit() {
			continue
		}
		j := len(r.pos)
		row := make([]bool, j)
		for _, q := range []int{g.Q0, g.Q1} {
			if i, ok := last[q]; ok {
				row[i] = true
				for k, a := range r.anc[i] {
					row[k] = row[k] || a
				}
			}
			last[q] = j
		}
		r.ord[gi] = j
		r.pos = append(r.pos, gi)
		r.anc = append(r.anc, row)
	}
	return r
}

// precedes reports whether ordinal i must execute before ordinal j.
func (r *refDAG) precedes(i, j int) bool { return i < j && r.anc[j][i] }

// window returns, as gate indices, every two-qubit gate h with
// prev ≺ h ≼ v (prev = -1: no lower cut), in circuit order.
func (r *refDAG) window(prev, v int) []int {
	var out []int
	for h := prev + 1; h < v; h++ {
		if (prev < 0 || r.precedes(prev, h)) && r.precedes(h, v) {
			out = append(out, r.pos[h])
		}
	}
	return append(out, r.pos[v])
}

// refBlocked is Lemma 1's degree pigeonhole, counted directly on the two
// graphs: some degree d has more pattern vertices of degree at least d
// than the target has.
func refBlocked(pattern, target *graph.Graph) bool {
	atLeast := func(g *graph.Graph, d int) int {
		n := 0
		for v := 0; v < g.N(); v++ {
			if g.Degree(v) >= d {
				n++
			}
		}
		return n
	}
	for d := 1; d <= pattern.MaxDegree(); d++ {
		if atLeast(pattern, d) > atLeast(target, d) {
			return true
		}
	}
	return false
}

// refCutChain is CutChain's definition computed the slow way: scan the
// two-qubit gates in circuit order, and cut at the first descendant of
// the previous cut whose window's interaction graph is blocked.
func refCutChain(c *circuit.Circuit, coupling *graph.Graph) []int {
	r := newRefDAG(c)
	var cuts []int
	prev := -1
	for v := range r.pos {
		if prev >= 0 && !r.precedes(prev, v) {
			continue
		}
		if refBlocked(c.InteractionGraphOf(r.window(prev, v)), coupling) {
			cuts = append(cuts, r.pos[v])
			prev = v
		}
	}
	return cuts
}

// refWindows re-derives the windows of a claimed chain from its cut gate
// indices, checking that each cut is a two-qubit gate that must execute
// after the previous cut. It does not check blocking.
func refWindows(c *circuit.Circuit, cuts []int) ([][]int, error) {
	r := newRefDAG(c)
	var windows [][]int
	prev := -1
	for i, gi := range cuts {
		if gi < 0 || gi >= len(c.Gates) || r.ord[gi] < 0 {
			return nil, fmt.Errorf("cut %d (gate %d) is not a two-qubit gate", i, gi)
		}
		v := r.ord[gi]
		if prev >= 0 && !r.precedes(prev, v) {
			return nil, fmt.Errorf("cut %d (gate %d) does not depend on cut %d (gate %d)", i, gi, i-1, cuts[i-1])
		}
		windows = append(windows, r.window(prev, v))
		prev = v
	}
	return windows, nil
}

// checkCutChain is the independent checker: the cuts form a chain in the
// dependency order, and every window they delimit is blocked on the
// coupling graph, so every routing of c needs len(cuts) SWAPs.
func checkCutChain(c *circuit.Circuit, coupling *graph.Graph, cuts []int) error {
	windows, err := refWindows(c, cuts)
	if err != nil {
		return err
	}
	for i, w := range windows {
		if !refBlocked(c.InteractionGraphOf(w), coupling) {
			return fmt.Errorf("window %d (%d gates, cut at gate %d) is not blocked", i, len(w), cuts[i])
		}
	}
	return nil
}
