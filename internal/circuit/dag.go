package circuit

import "math/bits"

// DAG is the gate dependency graph over the circuit's two-qubit gates
// (Figure 1(c) of the paper). Single-qubit gates are excluded: they impose
// no connectivity constraint and can be re-inserted after layout synthesis.
//
// Node i corresponds to the i-th two-qubit gate in circuit order;
// GateIndex maps it back to the position in Circuit.Gates. There is an
// edge u -> v when v is the next gate after u sharing one of u's qubits,
// i.e. v can execute immediately after u on that qubit.
type DAG struct {
	circ      *Circuit
	GateIndex []int   // node -> index into circ.Gates
	NodeOf    []int   // gate index -> node (or -1 for single-qubit gates)
	Succs     [][]int // immediate successors
	Preds     [][]int // immediate predecessors
}

// NewDAG builds the dependency DAG of c's two-qubit gates. A node's
// predecessors are the last gates on its two qubits and its successors
// the next ones, so it has at most two of each: every Succs and Preds
// list is carved, capped at two entries, out of one flat buffer.
func NewDAG(c *Circuit) *DAG {
	n := 0
	for _, g := range c.Gates {
		if g.TwoQubit() {
			n++
		}
	}
	d := &DAG{
		circ:      c,
		GateIndex: make([]int, 0, n),
		NodeOf:    make([]int, len(c.Gates)),
		Succs:     make([][]int, n),
		Preds:     make([][]int, n),
	}
	for i, g := range c.Gates {
		d.NodeOf[i] = -1
		if g.TwoQubit() {
			d.NodeOf[i] = len(d.GateIndex)
			d.GateIndex = append(d.GateIndex, i)
		}
	}
	adj := make([]int, 4*n)
	for v := range n {
		d.Succs[v] = adj[4*v : 4*v : 4*v+2]
		d.Preds[v] = adj[4*v+2 : 4*v+2 : 4*v+4]
	}
	last := make([]int, c.NumQubits) // last node touching each qubit, -1 none
	for q := range last {
		last[q] = -1
	}
	for node, gi := range d.GateIndex {
		g := c.Gates[gi]
		for _, q := range [2]int{g.Q0, g.Q1} {
			if p := last[q]; p != -1 {
				// Avoid duplicate edge when both qubits shared with the
				// same predecessor.
				if !containsInt(d.Succs[p], node) {
					d.Succs[p] = append(d.Succs[p], node)
					d.Preds[node] = append(d.Preds[node], p)
				}
			}
			last[q] = node
		}
	}
	return d
}

// N returns the number of DAG nodes (two-qubit gates).
func (d *DAG) N() int { return len(d.GateIndex) }

// Gate returns the gate for DAG node i.
func (d *DAG) Gate(i int) Gate { return d.circ.Gates[d.GateIndex[i]] }

// Roots returns the nodes with no predecessors (the initial front layer).
func (d *DAG) Roots() []int {
	var out []int
	for i := range d.Preds {
		if len(d.Preds[i]) == 0 {
			out = append(out, i)
		}
	}
	return out
}

// bitset is a fixed-size bit vector used for reachability closures.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i int)      { b[i>>6] |= 1 << (uint(i) & 63) }
func (b bitset) get(i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }

func (b bitset) orInto(other bitset) {
	for i := range b {
		b[i] |= other[i]
	}
}

func (b bitset) count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// Reachability holds the ancestor closure of every node: Anc[v] contains u
// iff there is a path u -> ... -> v, i.e. u must execute before v. This is
// the Prev(g) set from the paper.
type Reachability struct {
	Anc []bitset
}

// Ancestors computes the full ancestor closure. Nodes are already in a
// topological order (circuit order), so a single forward sweep suffices.
// Memory is O(n^2/64), fine for the paper's largest circuits (~3000 gates).
func (d *DAG) Ancestors() *Reachability {
	n := d.N()
	r := &Reachability{Anc: make([]bitset, n)}
	for v := 0; v < n; v++ {
		r.Anc[v] = newBitset(n)
		for _, p := range d.Preds[v] {
			r.Anc[v].set(p)
			r.Anc[v].orInto(r.Anc[p])
		}
	}
	return r
}

// MustPrecede reports whether node u is an ancestor of node v (u must
// execute before v). A node does not precede itself.
func (r *Reachability) MustPrecede(u, v int) bool { return r.Anc[v].get(u) }

// AncestorCount returns |Prev(v)|.
func (r *Reachability) AncestorCount(v int) int { return r.Anc[v].count() }

// Layers returns the ASAP layering of the DAG: layer 0 holds the roots,
// and each node sits one past its deepest predecessor. Two-qubit gates in
// the same layer act on disjoint qubits only if the circuit permits it;
// layering here is purely dependency-driven, which is what slice-based
// routers (t|ket⟩-style) consume. Every layer lists its nodes in
// circuit order, carved out of one flat buffer.
func (d *DAG) Layers() [][]int {
	n := d.N()
	if n == 0 {
		return nil
	}
	depth := make([]int, n)
	maxDepth := 0
	for v := 0; v < n; v++ {
		dep := 0
		for _, p := range d.Preds[v] {
			if depth[p]+1 > dep {
				dep = depth[p] + 1
			}
		}
		depth[v] = dep
		if dep > maxDepth {
			maxDepth = dep
		}
	}
	// start[l] is where layer l begins in the flat buffer.
	start := make([]int, maxDepth+2)
	for _, dep := range depth {
		start[dep+1]++
	}
	for l := 1; l < len(start); l++ {
		start[l] += start[l-1]
	}
	flat := make([]int, n)
	layers := make([][]int, maxDepth+1)
	for l := range layers {
		layers[l] = flat[start[l]:start[l]:start[l+1]]
	}
	for v := 0; v < n; v++ {
		layers[depth[v]] = append(layers[depth[v]], v)
	}
	return layers
}

// Depth returns the number of ASAP layers (0 for an empty DAG).
func (d *DAG) Depth() int {
	return len(d.Layers())
}

func containsInt(s []int, x int) bool {
	for _, v := range s {
		if v == x {
			return true
		}
	}
	return false
}
