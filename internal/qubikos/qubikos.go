// Package qubikos implements the paper's primary contribution: generation
// of QUBIKOS benchmark circuits — quantum circuits with a provably optimal
// (known, non-zero) SWAP count for a given coupling graph — together with
// the known-optimal transpiled solution, and the cut-chain certificate
// (CutChain) that re-proves the lower bound from a circuit alone.
//
// Construction (paper Section III): for each of the n requested SWAPs,
// pick a coupling edge whose swap gives one of its occupants a brand-new
// neighbor; build an interaction graph that saturates that occupant's
// current neighborhood plus one "special" gate to the new neighbor
// (Algorithm 1) — by a degree-pigeonhole argument this graph embeds in no
// subgraph of the device, forcing one SWAP; order the section's gates by
// BFS passes so the special gates serialize the sections (Algorithm 2);
// concatenate sections and pad with gates that are executable in place
// (Algorithm 3). The result needs at least n SWAPs (each section forces
// one and they cannot be shared) and exactly n suffice (the bundled
// solution is a witness). CutChain restates that lower-bound argument on
// the circuit's dependency DAG, so it needs none of the construction
// metadata.
package qubikos

import (
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/graph"
	"repro/internal/router"
)

// Options controls benchmark generation.
type Options struct {
	// NumSwaps is the provably optimal SWAP count n (>= 0; 0 degenerates
	// to a SWAP-free, QUEKO-like benchmark).
	NumSwaps int
	// TargetTwoQubitGates pads the circuit with redundant two-qubit gates
	// up to this total (0 = backbone only). If the backbone alone exceeds
	// the target, no padding is added.
	TargetTwoQubitGates int
	// MaxTwoQubitGates, when positive, is a hard cap: generation retries
	// with derived seeds until the backbone fits, then errors. The paper's
	// Section IV-A optimality study uses a 30-gate cap.
	MaxTwoQubitGates int
	// SingleQubitGates sprinkles this many single-qubit gates (H/X/RZ)
	// into random positions for realism; they never affect SWAP counts.
	SingleQubitGates int
	// PreferHighDegree selects the swap-edge endpoint with the larger
	// degree when both qualify, which shrinks sections (interaction graphs
	// around a maximum-degree qubit are stars). Needed to meet tight gate
	// caps; the paper's large-architecture suites leave it off.
	PreferHighDegree bool
	// Seed drives all randomness; the same seed reproduces the benchmark.
	Seed int64
}

// Section records the construction metadata of one backbone section.
type Section struct {
	// SwapPhys is the physical coupling edge swapped by this section.
	SwapPhys graph.Edge
	// SwapProg is the program-qubit pair occupying SwapPhys when the swap
	// fires (the SWAP gate in the solution acts on these).
	SwapProg [2]int
	// Special is the section's special gate (forces the swap).
	Special circuit.Gate
	// MappingBefore is the program->physical mapping f_i at section start.
	MappingBefore router.Mapping
}

// Benchmark bundles a generated circuit with its provably optimal
// solution and the construction's section records.
type Benchmark struct {
	Device  *arch.Device
	Circuit *circuit.Circuit
	// Solution is the known-optimal transpiled circuit: it executes under
	// InitialMapping with exactly OptSwaps SWAP gates.
	Solution *router.Result
	// OptSwaps is the provably optimal SWAP count.
	OptSwaps int
	// InitialMapping is the optimal initial placement f_init.
	InitialMapping router.Mapping
	Sections       []Section
	Seed           int64
}

// Generate constructs a QUBIKOS benchmark on the device.
func Generate(dev *arch.Device, opts Options) (*Benchmark, error) {
	if opts.NumSwaps < 0 {
		return nil, fmt.Errorf("qubikos: negative swap count %d", opts.NumSwaps)
	}
	if opts.MaxTwoQubitGates > 0 && opts.TargetTwoQubitGates > opts.MaxTwoQubitGates {
		return nil, fmt.Errorf("qubikos: target %d exceeds cap %d",
			opts.TargetTwoQubitGates, opts.MaxTwoQubitGates)
	}
	const retries = 64
	var lastErr error
	for attempt := 0; attempt < retries; attempt++ {
		seed := opts.Seed + int64(attempt)*0x9E3779B97F4A7C_1 // golden-ratio stride
		b, err := generateOnce(dev, opts, seed)
		if err == nil {
			return b, nil
		}
		lastErr = err
		if !retryable(err) {
			return nil, err
		}
	}
	return nil, fmt.Errorf("qubikos: generation failed after %d attempts: %w", retries, lastErr)
}

// sizeError marks failures that a fresh seed can fix (backbone exceeded a
// hard cap); structural errors are not retried.
type sizeError struct{ error }

func retryable(err error) bool {
	_, ok := err.(sizeError)
	return ok
}

func generateOnce(dev *arch.Device, opts Options, seed int64) (*Benchmark, error) {
	g := dev.Graph()
	nP := dev.NumQubits()
	rng := rand.New(rand.NewSource(seed))

	if opts.NumSwaps > 0 && isComplete(g) {
		return nil, fmt.Errorf("qubikos: cannot force SWAPs on a fully connected device")
	}

	finit := router.Mapping(rng.Perm(nP))
	fcur := finit.Clone()

	bodies := make([][]circuit.Gate, opts.NumSwaps+1) // last = epilogue
	specials := make([]circuit.Gate, 0, opts.NumSwaps)
	sections := make([]Section, 0, opts.NumSwaps)

	var gprev *circuit.Gate
	for i := 0; i < opts.NumSwaps; i++ {
		sec, body, special, err := buildSection(g, fcur, gprev, rng, opts.PreferHighDegree)
		if err != nil {
			return nil, err
		}
		sec.MappingBefore = fcur.Clone()
		bodies[i] = body
		specials = append(specials, special)
		sections = append(sections, *sec)
		// Apply the swap to the running mapping.
		qa, qb := sec.SwapProg[0], sec.SwapProg[1]
		fcur.SwapProgram(qa, qb)
		sp := special
		gprev = &sp
	}

	// Backbone two-qubit gate count: bodies plus one special per section.
	backbone2q := len(specials)
	for _, body := range bodies {
		backbone2q += len(body)
	}
	if opts.MaxTwoQubitGates > 0 && backbone2q > opts.MaxTwoQubitGates {
		return nil, sizeError{fmt.Errorf("qubikos: backbone needs %d two-qubit gates, cap is %d",
			backbone2q, opts.MaxTwoQubitGates)}
	}

	// Padding: insert redundant two-qubit gates executable in place. A
	// gate on the program pair occupying a coupling edge under f_j can run
	// in zone j without extra SWAPs; removing padded gates from any
	// transpiled circuit leaves a valid backbone transpilation, so the
	// lower bound survives, and the bundled solution shows n still
	// suffice.
	zoneMappings := make([]router.Mapping, opts.NumSwaps+1)
	for i, sec := range sections {
		zoneMappings[i] = sec.MappingBefore
	}
	zoneMappings[opts.NumSwaps] = fcur.Clone()

	pad2q := 0
	if opts.TargetTwoQubitGates > backbone2q {
		pad2q = opts.TargetTwoQubitGates - backbone2q
	}
	if opts.MaxTwoQubitGates > 0 && backbone2q+pad2q > opts.MaxTwoQubitGates {
		pad2q = opts.MaxTwoQubitGates - backbone2q
	}
	edges := g.Edges()
	for i := 0; i < pad2q; i++ {
		zone := rng.Intn(opts.NumSwaps + 1)
		e := edges[rng.Intn(len(edges))]
		inv := zoneMappings[zone].Inverse(nP)
		qa, qb := inv[e.U], inv[e.V]
		gate := randomTwoQubit(rng, qa, qb)
		pos := rng.Intn(len(bodies[zone]) + 1)
		bodies[zone] = slices.Insert(bodies[zone], pos, gate)
	}
	for i := 0; i < opts.SingleQubitGates; i++ {
		zone := rng.Intn(opts.NumSwaps + 1)
		gate := randomSingleQubit(rng, nP)
		pos := rng.Intn(len(bodies[zone]) + 1)
		bodies[zone] = slices.Insert(bodies[zone], pos, gate)
	}

	// Assemble the benchmark circuit and the solution.
	bench := circuit.New(nP)
	sol := circuit.New(nP)
	for j := range bodies {
		bench.MustAppend(bodies[j]...)
		sol.MustAppend(bodies[j]...)
		if j < len(specials) {
			sol.MustAppend(circuit.NewSwap(sections[j].SwapProg[0], sections[j].SwapProg[1]))
			bench.MustAppend(specials[j])
			sol.MustAppend(specials[j])
		}
	}

	b := &Benchmark{
		Device:  dev,
		Circuit: bench,
		Solution: &router.Result{
			Tool:           "qubikos-construction",
			InitialMapping: finit.Clone(),
			Transpiled:     sol,
			SwapCount:      opts.NumSwaps,
		},
		OptSwaps:       opts.NumSwaps,
		InitialMapping: finit,
		Sections:       sections,
		Seed:           seed,
	}
	if err := router.Validate(bench, dev, b.Solution); err != nil {
		return nil, fmt.Errorf("qubikos: internal error, constructed solution invalid: %w", err)
	}
	return b, nil
}

// buildSection runs Algorithms 1 and 2 for one section: selects the swap
// edge and special gate, builds the saturating edge set S plus connectors,
// and serializes the gates.
func buildSection(g *graph.Graph, f router.Mapping, gprev *circuit.Gate, rng *rand.Rand, preferHigh bool) (*Section, []circuit.Gate, circuit.Gate, error) {
	nP := g.N()
	inv := f.Inverse(nP)

	// --- Algorithm 1: swap edge, moving endpoint p, new neighbor p''. ---
	type cand struct {
		e      graph.Edge
		p, p2  int // p: endpoint whose occupant moves; p2: the other
		newNbr []int
	}
	var cands []cand
	for _, e := range g.Edges() {
		for _, orient := range [][2]int{{e.U, e.V}, {e.V, e.U}} {
			p, p2 := orient[0], orient[1]
			var fresh []int
			for _, x := range g.Neighbors(p2) {
				if x != p && !g.HasEdge(p, x) {
					fresh = append(fresh, x)
				}
			}
			if len(fresh) > 0 {
				cands = append(cands, cand{e: e, p: p, p2: p2, newNbr: fresh})
			}
		}
	}
	if len(cands) == 0 {
		return nil, nil, circuit.Gate{}, fmt.Errorf("qubikos: no swap can create a new neighbor (device too dense)")
	}
	if preferHigh {
		best := 0
		for _, c := range cands {
			if d := g.Degree(c.p); d > best {
				best = d
			}
		}
		var filtered []cand
		for _, c := range cands {
			if g.Degree(c.p) == best {
				filtered = append(filtered, c)
			}
		}
		cands = filtered
	}
	ch := cands[rng.Intn(len(cands))]
	pp := ch.newNbr[rng.Intn(len(ch.newNbr))]
	q := inv[ch.p]
	qq := inv[pp]
	special := randomTwoQubit(rng, q, qq)

	// S: every coupling edge incident to p, plus every edge with an
	// endpoint of degree greater than deg(p), mapped to program qubits.
	degP := g.Degree(ch.p)
	var sProg []graph.Edge // program-qubit pairs
	sSet := map[graph.Edge]bool{}
	var sPhys []graph.Edge
	for _, e := range g.Edges() {
		if e.U == ch.p || e.V == ch.p || g.Degree(e.U) > degP || g.Degree(e.V) > degP {
			pe := graph.Edge{U: inv[e.U], V: inv[e.V]}.Normalize()
			if !sSet[pe] {
				sSet[pe] = true
				sProg = append(sProg, pe)
				sPhys = append(sPhys, e.Normalize())
			}
		}
	}

	sec := &Section{
		SwapPhys: ch.e.Normalize(),
		SwapProg: [2]int{inv[ch.e.U], inv[ch.e.V]},
		Special:  special,
	}

	// --- Algorithm 2: serialize. Compact star form when S is a star
	// around q and a dependency hook to the previous special exists;
	// otherwise the general double-BFS form with connectors. ---
	if degP == g.MaxDegree() {
		if body, ok := compactStarBody(sProg, q, gprev, rng); ok {
			return sec, body, special, nil
		}
	}
	body, err := doublePassBody(g, f, inv, sProg, sPhys, q, qq, gprev, rng)
	if err != nil {
		return nil, nil, circuit.Gate{}, err
	}
	return sec, body, special, nil
}

// compactStarBody serializes a star-shaped S (all edges share q) in a
// single pass: a gate touching the previous special goes first, the rest
// follow in random order. Every gate shares q, so consecutive gates chain,
// the special (appended by the caller) depends on all of them, and the
// first gate hooks the section to the previous one. Returns ok=false when
// no hook to the previous special exists.
func compactStarBody(sProg []graph.Edge, q int, gprev *circuit.Gate, rng *rand.Rand) ([]circuit.Gate, bool) {
	order := make([]graph.Edge, len(sProg))
	copy(order, sProg)
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	if gprev != nil {
		hook := -1
		if q == gprev.Q0 || q == gprev.Q1 {
			hook = 0 // every gate shares q with the previous special
		} else {
			for i, e := range order {
				other := e.U
				if other == q {
					other = e.V
				}
				if other == gprev.Q0 || other == gprev.Q1 {
					hook = i
					break
				}
			}
			if hook == -1 {
				return nil, false
			}
			order[0], order[hook] = order[hook], order[0]
		}
	}
	body := make([]circuit.Gate, 0, len(order))
	for _, e := range order {
		body = append(body, edgeGate(rng, e))
	}
	return body, true
}

// doublePassBody implements the paper's general ordering: connect S (plus
// connector gates realizable under f) into one component containing q and
// reachable from the previous special's qubits, then emit a forward BFS
// edge pass rooted at the previous special's qubits and a reversed BFS
// pass rooted at the current special's qubits.
func doublePassBody(g *graph.Graph, f router.Mapping, inv []int, sProg, sPhys []graph.Edge, q, qq int, gprev *circuit.Gate, rng *rand.Rand) ([]circuit.Gate, error) {
	nP := g.N()

	// Union-find in physical space over the S edges.
	uf := graph.NewUnionFind(nP)
	for _, e := range sPhys {
		uf.Union(e.U, e.V)
	}
	main := uf.Find(f[q])

	// Needed roots: every S component plus (when present) the previous
	// special's physical locations.
	needed := map[int]bool{}
	for _, e := range sPhys {
		needed[uf.Find(e.U)] = true
	}
	if gprev != nil {
		needed[uf.Find(f[gprev.Q0])] = true
	}
	delete(needed, main)

	// Connector edges: BFS outward from the main component through the
	// coupling graph; when an unmerged needed component is reached, adopt
	// the connecting path's edges (realizable under f by construction).
	// Insertion order is preserved — iterating a map here would make the
	// generated circuit differ across process runs.
	connectorSeen := map[graph.Edge]bool{}
	var connectors []graph.Edge
	for len(needed) > 0 {
		parent := make([]int, nP)
		for i := range parent {
			parent[i] = -2
		}
		var queue []int
		for v := 0; v < nP; v++ {
			if uf.Find(v) == uf.Find(main) {
				parent[v] = -1
				queue = append(queue, v)
			}
		}
		found := -1
		for len(queue) > 0 && found == -1 {
			v := queue[0]
			queue = queue[1:]
			for _, w := range g.Neighbors(v) {
				if parent[w] != -2 {
					continue
				}
				parent[w] = v
				if needed[uf.Find(w)] {
					found = w
					break
				}
				queue = append(queue, w)
			}
		}
		if found == -1 {
			return nil, fmt.Errorf("qubikos: internal error: connector search exhausted a connected device")
		}
		delete(needed, uf.Find(found))
		for v := found; parent[v] != -1; v = parent[v] {
			e := graph.Edge{U: v, V: parent[v]}.Normalize()
			if !connectorSeen[e] {
				connectorSeen[e] = true
				connectors = append(connectors, e)
			}
			uf.Union(v, parent[v])
		}
	}

	// H: program-space graph of S plus connectors.
	h := graph.New(nP)
	add := func(u, v int) {
		if !h.HasEdge(u, v) {
			if err := h.AddEdge(u, v); err != nil {
				panic(err) // unreachable: program indices are valid
			}
		}
	}
	for _, e := range sProg {
		add(e.U, e.V)
	}
	for _, e := range connectors {
		add(inv[e.U], inv[e.V])
	}

	fwdSources := []int{q}
	if gprev != nil {
		fwdSources = []int{gprev.Q0, gprev.Q1}
	}
	var body []circuit.Gate
	if gprev != nil {
		fwd := h.BFSAllEdgeOrder(fwdSources, nil)
		if len(fwd) != h.M() {
			return nil, fmt.Errorf("qubikos: internal error: forward pass covers %d of %d gates", len(fwd), h.M())
		}
		for _, e := range fwd {
			body = append(body, edgeGate(rng, e))
		}
	}
	bwd := h.BFSAllEdgeOrder([]int{q, qq}, nil)
	if len(bwd) != h.M() {
		return nil, fmt.Errorf("qubikos: internal error: backward pass covers %d of %d gates", len(bwd), h.M())
	}
	for i := len(bwd) - 1; i >= 0; i-- {
		body = append(body, edgeGate(rng, bwd[i]))
	}
	return body, nil
}

func isComplete(g *graph.Graph) bool {
	n := g.N()
	return g.M() == n*(n-1)/2
}

func randomTwoQubit(rng *rand.Rand, a, b int) circuit.Gate {
	if rng.Intn(2) == 0 {
		a, b = b, a
	}
	if rng.Intn(4) == 0 {
		return circuit.Gate{Kind: circuit.CZ, Q0: a, Q1: b}
	}
	return circuit.NewCX(a, b)
}

func edgeGate(rng *rand.Rand, e graph.Edge) circuit.Gate {
	return randomTwoQubit(rng, e.U, e.V)
}

func randomSingleQubit(rng *rand.Rand, nQ int) circuit.Gate {
	q := rng.Intn(nQ)
	switch rng.Intn(3) {
	case 0:
		return circuit.NewH(q)
	case 1:
		return circuit.NewX(q)
	default:
		return circuit.NewRZ(q, float64(rng.Intn(64))*0.0981747704246810387) // k*pi/32
	}
}
