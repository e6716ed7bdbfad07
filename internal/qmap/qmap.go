// Package qmap implements a QMAP-style heuristic mapper (Zulehner, Paler,
// Wille, TCAD 2019 — the heuristic behind MQT QMAP): the circuit is
// partitioned into layers of compatible two-qubit gates; for every layer
// an A* search over SWAP insertions finds a cheap mapping under which the
// whole layer is executable, with a one-layer discounted lookahead. Each
// layer is optimized mostly in isolation, which lets the mapping drift —
// the behaviour behind QMAP's large optimality gaps in the paper.
//
// The A* search is built for throughput in the SABRE-engine style (see
// docs/performance.md): a generated node is only an 8-byte (parent, swap)
// successor record that its 8-byte heap entry points to, and a node gets
// its full record in a flat arena addressed by index (no *state pointers)
// only when it is popped, which few generated nodes ever are. The open
// list is an index heap replicating container/heap's ordering exactly
// with the f-cost stored inline in the heap entry, the closed set is a
// reusable open-addressed hash table with its keys and one-byte epoch
// stamps in separate arrays, candidate SWAPs are deduplicated per
// coupler, and per-layer gate tables are flattened to one gate per
// qubit (ASAP layers are qubit-disjoint). The search is one
// serial pass: each popped node's candidate SWAPs are enumerated in
// canonical order, and every candidate not yet in the closed set is
// scored by an exact integer heuristic delta and pushed as soon as it is
// found, so heap contents and tie-breaking are fixed by that order
// (pinned by TestGoldenCorpus). The node budget is a single counter and
// cancellation is polled once per pop, so steady-state expansion
// performs zero heap allocations with or without a deadline armed.
package qmap

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/graph"
	"repro/internal/router"
)

// Options configures the mapper.
type Options struct {
	// MaxNodes bounds the A* search per layer; when exhausted the best
	// frontier state is taken and routing continues greedily.
	MaxNodes int
	// Seed drives the initial placement shuffle.
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.MaxNodes <= 0 {
		o.MaxNodes = 20000
	}
	return o
}

// Router is the QMAP-style tool. A Router reuses its search scratch
// across Route calls and is therefore not safe for concurrent use;
// create one Router per goroutine (the harness builds one per job).
type Router struct {
	opts  Options
	eng   *engine // A* scratch reused across calls
	stats router.Counters
}

// Counters implements router.Instrumented: Decisions are A* node
// expansions (pops), Candidates the successor states generated,
// Restarts the per-layer searches run. The engine counts into plain
// fields; deltas fold into the Router once per Route, so the search loop
// stays atomic-free and 0 B/op. Like Route itself, not safe to call
// concurrently with Route.
func (r *Router) Counters() router.Counters { return r.stats }

// New returns a QMAP-style router.
func New(opts Options) *Router { return &Router{opts: opts.withDefaults()} }

// Name implements router.Router.
func (r *Router) Name() string { return "qmap" }

// Route implements router.Router. An initial mapping replaces the
// placement heuristic. Cancellation, polled once per A* pop, cuts the
// per-layer A* short exactly as node exhaustion would; the layer loop
// then aborts before emitting anything from the truncated search, so no
// partial result escapes.
func (r *Router) Route(ctx context.Context, p *router.Prepared, initial router.Mapping) (*router.Result, error) {
	dev := p.Device
	skeleton := p.Skeleton
	rng := rand.New(rand.NewSource(r.opts.Seed))

	dag := p.DAG()
	layers := p.Layers()

	var mapping router.Mapping
	if initial != nil {
		mapping = router.PadMapping(initial, dev.NumQubits())
	} else {
		mapping = initialPlacement(skeleton, dev, rng)
	}
	placed := mapping.Clone()

	e := r.ensureEngine(dev, len(mapping))
	e.check.Reset(ctx)

	g := e.g
	dist := e.dist
	out := circuit.New(skeleton.NumQubits)
	swaps := 0

	// The engine persists across Route calls (and is replaced when the
	// device changes), so the per-call work is the counter delta.
	pops0, gen0 := e.cntPops, e.cntGen

	for li, layer := range layers {
		var next []int
		if li+1 < len(layers) {
			next = layers[li+1]
		}
		seq, final := e.searchLayer(r.opts, mapping, layer, next, dag)
		if err := e.check.Err(); err != nil {
			return nil, fmt.Errorf("qmap: %w", err)
		}
		for _, sw := range seq {
			out.MustAppend(circuit.NewSwap(sw[0], sw[1]))
			swaps++
		}
		mapping = final
		// Emit the layer's gates (now all executable).
		for _, v := range layer {
			gt := dag.Gate(v)
			if !g.HasEdge(mapping[gt.Q0], mapping[gt.Q1]) {
				// A* was truncated; finish greedily along shortest paths.
				inv := mapping.Inverse(dev.NumQubits())
				for !g.HasEdge(mapping[gt.Q0], mapping[gt.Q1]) {
					p0, p1 := mapping[gt.Q0], mapping[gt.Q1]
					for _, pn := range g.Neighbors(p0) {
						if dist.At(pn, p1) < dist.At(p0, p1) {
							qn := inv[pn]
							out.MustAppend(circuit.NewSwap(gt.Q0, qn))
							swaps++
							inv[p0], inv[pn] = qn, gt.Q0
							mapping.SwapProgram(gt.Q0, qn)
							break
						}
					}
				}
			}
			out.MustAppend(gt)
		}
	}

	woven, err := router.WeaveSingleQubitGates(p.Padded, out)
	if err != nil {
		return nil, fmt.Errorf("qmap: %w", err)
	}
	r.stats.Decisions += e.cntPops - pops0
	r.stats.Candidates += e.cntGen - gen0
	r.stats.Restarts += int64(len(layers))
	return &router.Result{
		Tool:           r.Name(),
		InitialMapping: placed,
		Transpiled:     woven,
		SwapCount:      swaps,
		Trials:         1,
	}, nil
}

func (r *Router) ensureEngine(dev *arch.Device, nQ int) *engine {
	// Keyed on the device's coupling graph (immutable, so pointer
	// identity suffices), not just sizes: a same-size different device
	// must not inherit this one's adjacency, distances, or Zobrist keys.
	if r.eng == nil || r.eng.g != dev.Graph() || r.eng.nQ != nQ {
		r.eng = newEngine(dev, nQ)
	}
	return r.eng
}

// astate is a popped A* node in the flat arena. To keep expansion cheap
// on 127-qubit devices the mapping is not stored per node: each node
// records only the swap that produced it and its parent's arena index,
// plus its heuristic and Zobrist hash. All of these follow from its
// successor record, its heap entry and its parent's record (see
// materialize), so only popped nodes need one. The full mapping is
// re-materialized by replaying the swap path when the node is popped.
type astate struct {
	parent int32 // arena index; -1 for the root
	swap   [2]int16
	depth  int32
	h4     int32 // heuristic at this node, in quarter units
	hash   uint64
}

// succ is a generated node waiting in the open list: the arena index of
// the popped node it was expanded from and the swap that produced it.
type succ struct {
	parent int32
	swap   [2]int16
}

// heapEntry is one open-list slot: the f-cost is duplicated here so
// sifting compares adjacent heap memory instead of random record loads.
// Every cost is an exact multiple of 0.25, so f is held as an int32 in
// quarter units — the map f -> 4f is strictly monotone and exact, so
// ordering and ties match the reference float engine bit for bit.
type heapEntry struct {
	f4  int32 // 4*(depth + h), exact
	idx int32 // successor index
}

// engine owns every piece of search scratch, sized once and reused
// across layers and Route calls so steady-state expansion allocates
// nothing.
type engine struct {
	g    *graph.Graph
	dist *graph.DistanceMatrix
	nQ   int // program register size (== padded device size)
	nP   int // physical qubit count

	// check polls for cancellation once per pop; the zero value (direct
	// engine users, background contexts) is inert.
	check router.CtxChecker

	// Work counters: node pops and deduplicated successors generated.
	cntPops int64
	cntGen  int64

	zob []uint64 // Zobrist keys, (program qubit, physical qubit) pairs

	states []astate // popped nodes
	succs  []succ   // generated nodes, indexed by heapEntry.idx
	heap   []heapEntry
	closed u64set

	// Per-layer flattened gate tables. ASAP layers are qubit-disjoint —
	// two gates sharing a qubit are DAG-ordered into different layers —
	// so each qubit has at most one layer gate and one lookahead gate,
	// recorded per qubit and per gate index, epoch-stamped so nothing is
	// cleared between layers.
	lq0, lq1   []int32 // layer gate endpoints, by gate index
	nq0, nq1   []int32 // lookahead gate endpoints, by gate index
	qStamp     []int32 // per qubit: == layerEpoch when active this layer
	qLGate     []int32 // per qubit: its layer gate index, -1 when none
	qNGate     []int32 // per qubit: its lookahead gate index, -1 when none
	layerEpoch int32

	// Per-pop current distance of each layer / lookahead gate, shared by
	// every candidate of the pop as the "before" side of the delta.
	curLD []int32
	curND []int32

	// Per-expansion candidate dedup on the coupler id.
	candSeen    []int32   // coupler id -> expandEpoch it was last enumerated in
	nbrEdge     [][]int32 // physical qubit -> coupler ids parallel to Neighbors
	expandEpoch int32

	// Swap-path replay scratch: the currently materialized path (swaps
	// and node indices, root-first) and the target-path staging buffer.
	m        router.Mapping
	inv      []int
	applied  [][2]int16
	appliedN []int32
	path     []int32
}

func newEngine(dev *arch.Device, nQ int) *engine {
	nP := dev.NumQubits()
	return &engine{
		g:        dev.Graph(),
		dist:     dev.Distances(),
		nQ:       nQ,
		nP:       nP,
		zob:      zobristFor(nQ, nP),
		qStamp:   make([]int32, nQ),
		qLGate:   make([]int32, nQ),
		qNGate:   make([]int32, nQ),
		candSeen: make([]int32, dev.NumCouplers()),
		nbrEdge:  dev.Graph().NeighborEdgeIDs(),
		m:        make(router.Mapping, nQ),
		inv:      make([]int, nP),
	}
}

// searchLayer runs A* from the current mapping to one under which every
// layer gate is executable. Candidate moves are SWAPs on coupler edges
// touching the layer's qubits. Returns the swap sequence and final
// mapping; on node exhaustion, the most promising frontier state.
func (e *engine) searchLayer(opts Options, start router.Mapping, layer, next []int, dag *circuit.DAG) ([][2]int, router.Mapping) {
	g := e.g
	dist := e.dist
	nP := e.nP

	// Flattened per-layer gate tables (one gate per qubit per table).
	e.layerEpoch++
	e.lq0, e.lq1 = e.lq0[:0], e.lq1[:0]
	e.nq0, e.nq1 = e.nq0[:0], e.nq1[:0]
	mark := func(q int) {
		if e.qStamp[q] != e.layerEpoch {
			e.qStamp[q] = e.layerEpoch
			e.qLGate[q] = -1
			e.qNGate[q] = -1
		}
	}
	for gi, v := range layer {
		gt := dag.Gate(v)
		mark(gt.Q0)
		mark(gt.Q1)
		e.qLGate[gt.Q0] = int32(gi)
		e.qLGate[gt.Q1] = int32(gi)
		e.lq0 = append(e.lq0, int32(gt.Q0))
		e.lq1 = append(e.lq1, int32(gt.Q1))
	}
	for gi, v := range next {
		gt := dag.Gate(v)
		mark(gt.Q0)
		mark(gt.Q1)
		e.qNGate[gt.Q0] = int32(gi)
		e.qNGate[gt.Q1] = int32(gi)
		e.nq0 = append(e.nq0, int32(gt.Q0))
		e.nq1 = append(e.nq1, int32(gt.Q1))
	}
	nL, nN := len(e.lq0), len(e.nq0)
	e.curLD = ensureI32(e.curLD, nL)
	e.curND = ensureI32(e.curND, nN)

	if e.goal(layer, start, dag) {
		return nil, start.Clone()
	}

	// Zobrist hash and integer excess sums of the start mapping.
	hash0 := uint64(0)
	for q, p := range start {
		hash0 ^= e.zob[q*nP+p]
	}
	rootX, rootLK := int32(0), int32(0)
	for gi := 0; gi < nL; gi++ {
		rootX += int32(dist.At(start[e.lq0[gi]], start[e.lq1[gi]]) - 1)
	}
	for gi := 0; gi < nN; gi++ {
		rootLK += int32(dist.At(start[e.nq0[gi]], start[e.nq1[gi]]) - 1)
	}

	e.states = e.states[:0]
	e.succs = e.succs[:0]
	e.heap = e.heap[:0]
	e.closed.reset()
	// Costs are exact quarter-unit integers: a layer excess step is worth
	// 4 and a lookahead step w4 = 3, a next-layer weight of 0.75.
	const w4 = 3
	// The root is in the arena before its first pop, so an exit before
	// that pop still has a frontier state to hand back.
	root := astate{parent: -1, h4: 4*rootX + w4*rootLK, hash: hash0}
	e.states = append(e.states, root)
	e.succs = append(e.succs, succ{parent: -1})
	e.heapPush(heapEntry{f4: root.h4, idx: 0})
	e.closed.addIfAbsent(hash0)

	// Scratch mapping replayed per pop.
	m := e.m[:len(start)]
	copy(m, start)
	inv := e.inv
	for i := range inv {
		inv[i] = -1
	}
	for q, p := range m {
		inv[p] = q
	}
	e.applied = e.applied[:0]
	e.appliedN = e.appliedN[:0]

	// Cancellation cuts the search short through the same exit as node
	// exhaustion: the most promising frontier state is handed back, and
	// the Route-level layer loop aborts before using it. nodes is the
	// single MaxNodes counter; Tick polls once per pop.
	bestFrontier := int32(0)
	nodes := 0
	for len(e.heap) > 0 && nodes < opts.MaxNodes && !e.check.Tick() {
		cur := e.materialize(e.heapPop(), m, inv)
		nodes++
		e.cntPops++

		// The pop's shared "before" side: current gate distances. Their
		// summed excess is exact: 0 ⇔ every layer gate at distance 1.
		x := int32(0)
		for gi := 0; gi < nL; gi++ {
			d := int32(dist.At(m[e.lq0[gi]], m[e.lq1[gi]]))
			e.curLD[gi] = d
			x += d - 1
		}
		if x == 0 {
			return e.appliedSeq(), m.Clone()
		}
		if e.states[cur].h4 < e.states[bestFrontier].h4 {
			bestFrontier = cur
		}
		for gi := 0; gi < nN; gi++ {
			e.curND[gi] = int32(dist.At(m[e.nq0[gi]], m[e.nq1[gi]]))
		}

		// Expand: SWAPs on coupler edges touching active qubits,
		// deduplicated per coupler, in canonical order. Under the padded
		// layout couplers and program pairs are in bijection, so this
		// keeps the first-seen order of a program-pair table. Each
		// candidate whose mapping is new enters the closed set, the
		// successor list and the heap at once.
		e.expandEpoch++
		curHash := e.states[cur].hash
		curH4 := e.states[cur].h4
		childDepth4 := 4 * (e.states[cur].depth + 1)
		for gi := 0; gi < nL; gi++ {
			for k := 0; k < 2; k++ {
				q := int(e.lq0[gi])
				if k == 1 {
					q = int(e.lq1[gi])
				}
				p := m[q]
				eids := e.nbrEdge[p]
				for j, pn := range g.Neighbors(p) {
					if e.candSeen[eids[j]] == e.expandEpoch {
						continue
					}
					e.candSeen[eids[j]] = e.expandEpoch
					e.cntGen++
					a, b := q, inv[pn]
					if a > b {
						a, b = b, a
					}
					pa, pb := m[a], m[b]
					nh := curHash ^ e.zob[a*nP+pa] ^ e.zob[a*nP+pb] ^ e.zob[b*nP+pb] ^ e.zob[b*nP+pa]
					if !e.closed.addIfAbsent(nh) {
						continue
					}
					dx, dl := e.swapDelta(a, b)
					idx := int32(len(e.succs))
					e.succs = append(e.succs, succ{parent: cur, swap: [2]int16{int16(a), int16(b)}})
					e.heapPush(heapEntry{f4: childDepth4 + curH4 + 4*dx + w4*dl, idx: idx})
				}
			}
		}
	}
	// Exhausted: hand the most promising state back; the caller finishes
	// greedily.
	e.apply(bestFrontier, m, inv)
	return e.appliedSeq(), m.Clone()
}

// materialize gives the popped entry x its arena record, applies its
// mapping to m/inv and returns its arena index. The record is rebuilt
// from x and the parent's record: depth is one more than the parent's,
// h4 is f4 less the path cost 4*depth, and the hash is the parent's
// XOR the four Zobrist keys the swap changes — the same keys before and
// after the swap, so they are read from m once it is applied.
func (e *engine) materialize(x heapEntry, m router.Mapping, inv []int) int32 {
	s := e.succs[x.idx]
	if s.parent < 0 {
		return 0 // the root: the first pop, already in the arena and in m
	}
	par := e.states[s.parent]
	depth := par.depth + 1
	cur := int32(len(e.states))
	e.states = append(e.states, astate{parent: s.parent, swap: s.swap, depth: depth, h4: x.f4 - 4*depth})
	e.apply(cur, m, inv)
	a, b := int(s.swap[0]), int(s.swap[1])
	pa, pb := m[a], m[b]
	e.states[cur].hash = par.hash ^ e.zob[a*e.nP+pa] ^ e.zob[a*e.nP+pb] ^ e.zob[b*e.nP+pb] ^ e.zob[b*e.nP+pa]
	return cur
}

// swapDelta scores swapping program qubits a and b against the popped
// node's mapping e.m: the change in summed layer excess (dx) and in
// summed lookahead excess (dl). Only gates on a or b can move, at most
// one layer and one lookahead gate per endpoint, each counted once when
// a and b share it.
func (e *engine) swapDelta(a, b int) (dx, dl int32) {
	m := e.m
	pa, pb := m[a], m[b]
	gLa, gNa, gLb, gNb := int32(-1), int32(-1), int32(-1), int32(-1)
	if e.qStamp[a] == e.layerEpoch {
		gLa, gNa = e.qLGate[a], e.qNGate[a]
	}
	if e.qStamp[b] == e.layerEpoch {
		gLb, gNb = e.qLGate[b], e.qNGate[b]
	}
	if gLb == gLa {
		gLb = -1
	}
	if gNb == gNa {
		gNb = -1
	}
	// pos applies the swap positionally: a moves to b's position and
	// vice versa; everyone else stays put.
	pos := func(q int32) int {
		switch int(q) {
		case a:
			return pb
		case b:
			return pa
		}
		return m[q]
	}
	dist := e.dist
	if gLa >= 0 {
		dx += int32(dist.At(pos(e.lq0[gLa]), pos(e.lq1[gLa]))) - e.curLD[gLa]
	}
	if gLb >= 0 {
		dx += int32(dist.At(pos(e.lq0[gLb]), pos(e.lq1[gLb]))) - e.curLD[gLb]
	}
	if gNa >= 0 {
		dl += int32(dist.At(pos(e.nq0[gNa]), pos(e.nq1[gNa]))) - e.curND[gNa]
	}
	if gNb >= 0 {
		dl += int32(dist.At(pos(e.nq0[gNb]), pos(e.nq1[gNb]))) - e.curND[gNb]
	}
	return dx, dl
}

func (e *engine) goal(layer []int, m router.Mapping, dag *circuit.DAG) bool {
	for _, v := range layer {
		gt := dag.Gate(v)
		if !e.g.HasEdge(m[gt.Q0], m[gt.Q1]) {
			return false
		}
	}
	return true
}

// apply re-materializes target's mapping into m/inv by rewinding the
// currently applied swap path to the deepest common ancestor and
// replaying only target's divergent suffix. Successive A* pops are
// usually near-siblings, so the divergence is far shorter than the
// full path.
func (e *engine) apply(target int32, m router.Mapping, inv []int) {
	d := int(e.states[target].depth)
	if cap(e.path) < d {
		e.path = make([]int32, d)
	}
	e.path = e.path[:d]
	// Walk up from target until hitting a node that is already
	// materialized (node k of the applied path sits at appliedN[k-1]).
	lca := 0
	for n := target; ; {
		dn := int(e.states[n].depth)
		if dn == 0 {
			break
		}
		if dn <= len(e.appliedN) && e.appliedN[dn-1] == n {
			lca = dn
			break
		}
		e.path[dn-1] = n
		n = e.states[n].parent
	}
	// Rewind beyond the common prefix.
	for i := len(e.applied) - 1; i >= lca; i-- {
		sw := e.applied[i]
		pa, pb := m[sw[0]], m[sw[1]]
		m[sw[0]], m[sw[1]] = pb, pa
		inv[pa], inv[pb] = int(sw[1]), int(sw[0])
	}
	e.applied = e.applied[:lca]
	e.appliedN = e.appliedN[:lca]
	// Replay the divergent suffix.
	for i := lca; i < d; i++ {
		n := e.path[i]
		sw := e.states[n].swap
		pa, pb := m[sw[0]], m[sw[1]]
		m[sw[0]], m[sw[1]] = pb, pa
		inv[pa], inv[pb] = int(sw[1]), int(sw[0])
		e.applied = append(e.applied, sw)
		e.appliedN = append(e.appliedN, n)
	}
}

// appliedSeq copies the currently applied swap path out of the scratch
// buffer (the per-layer return value).
func (e *engine) appliedSeq() [][2]int {
	if len(e.applied) == 0 {
		return nil
	}
	out := make([][2]int, len(e.applied))
	for i, sw := range e.applied {
		out[i] = [2]int{int(sw[0]), int(sw[1])}
	}
	return out
}

// ensureI32 returns s resized to length n, reallocating only on growth.
func ensureI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// --- open list: an index heap replicating container/heap exactly -----
//
// Entries carry (4*fCost, arena index); comparisons are strictly-less
// on the quarter-unit f, exactly as the reference engine compared arena
// fCosts (4f is a strictly monotone, exact map of f), so push and pop
// order — including ties — is unchanged.

func (e *engine) heapPush(x heapEntry) {
	e.heap = append(e.heap, x)
	j := len(e.heap) - 1
	for {
		i := (j - 1) / 2 // parent
		if i == j || !(e.heap[j].f4 < e.heap[i].f4) {
			break
		}
		e.heap[i], e.heap[j] = e.heap[j], e.heap[i]
		j = i
	}
}

func (e *engine) heapPop() heapEntry {
	n := len(e.heap) - 1
	e.heap[0], e.heap[n] = e.heap[n], e.heap[0]
	e.heapDown(0, n)
	x := e.heap[n]
	e.heap = e.heap[:n]
	return x
}

func (e *engine) heapDown(i0, n int) {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && e.heap[j2].f4 < e.heap[j1].f4 {
			j = j2 // = 2*i + 2  // right child
		}
		if !(e.heap[j].f4 < e.heap[i].f4) {
			break
		}
		e.heap[i], e.heap[j] = e.heap[j], e.heap[i]
		i = j
	}
}

// --- closed set: reusable open-addressed uint64 hash set -------------

// u64set is an open-addressed hash set of uint64 keys with epoch-based
// clearing: reset invalidates every slot in O(1), and the table only
// grows (amortized) until it fits the largest layer's search, after
// which membership tests allocate nothing. Keys and one-byte epoch
// stamps live in separate arrays, so a slot costs 9 bytes and a probe
// that meets an empty slot reads only the stamp byte. The load factor
// is kept at 7/8 — probe runs get longer, but the table stays half the
// size, which wins on big searches; membership decisions are
// load-factor-independent, so pinned outputs don't move. Presence is
// tracked by the stamp, so a stored key of 0 is representable. Stamp 0
// marks a slot empty in every epoch; when the epoch byte wraps, every
// stamp is cleared so that a key from 255 resets ago cannot read as
// present.
type u64set struct {
	keys   []uint64
	stamps []uint8
	epoch  uint8
	count  int
}

func (s *u64set) reset() {
	s.epoch++
	if s.epoch == 0 {
		clear(s.stamps)
		s.epoch = 1
	}
	s.count = 0
	if len(s.keys) == 0 {
		s.grow(1024)
	}
}

func (s *u64set) grow(n int) {
	oldKeys, oldStamps := s.keys, s.stamps
	s.keys = make([]uint64, n)
	s.stamps = make([]uint8, n)
	for i, st := range oldStamps {
		if st == s.epoch {
			s.insert(oldKeys[i])
		}
	}
}

func (s *u64set) insert(k uint64) {
	mask := len(s.keys) - 1
	i := int(splitmix64(k)) & mask
	for s.stamps[i] == s.epoch {
		i = (i + 1) & mask
	}
	s.keys[i] = k
	s.stamps[i] = s.epoch
}

// addIfAbsent inserts k and reports true when it was not present.
func (s *u64set) addIfAbsent(k uint64) bool {
	mask := len(s.keys) - 1
	i := int(splitmix64(k)) & mask
	for s.stamps[i] == s.epoch {
		if s.keys[i] == k {
			return false
		}
		i = (i + 1) & mask
	}
	s.keys[i] = k
	s.stamps[i] = s.epoch
	s.count++
	if s.count*8 > len(s.keys)*7 {
		s.grow(len(s.keys) * 2)
	}
	return true
}

func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// zobristFor returns deterministic pseudo-random keys for (program qubit,
// physical qubit) pairs, used to hash mappings incrementally.
func zobristFor(nQ, nP int) []uint64 {
	out := make([]uint64, nQ*nP)
	x := uint64(0x9E3779B97F4A7C15)
	for i := range out {
		// SplitMix64.
		x += 0x9E3779B97F4A7C15
		z := x
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		out[i] = z ^ (z >> 31)
	}
	return out
}

// initialPlacement assigns interaction-degree-sorted program qubits to
// coupling-degree-sorted physical qubits (QMAP's simple starting layout).
func initialPlacement(skeleton *circuit.Circuit, dev *arch.Device, rng *rand.Rand) router.Mapping {
	ig := skeleton.InteractionGraph()
	nQ := skeleton.NumQubits
	progs := make([]int, nQ)
	for i := range progs {
		progs[i] = i
	}
	rng.Shuffle(nQ, func(i, j int) { progs[i], progs[j] = progs[j], progs[i] })
	sort.SliceStable(progs, func(a, b int) bool { return ig.Degree(progs[a]) > ig.Degree(progs[b]) })

	g := dev.Graph()
	phys := make([]int, g.N())
	for i := range phys {
		phys[i] = i
	}
	sort.SliceStable(phys, func(a, b int) bool { return g.Degree(phys[a]) > g.Degree(phys[b]) })

	mapping := make(router.Mapping, nQ)
	for i, q := range progs {
		mapping[q] = phys[i]
	}
	return mapping
}
