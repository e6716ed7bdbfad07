// Package qmap implements a QMAP-style heuristic mapper (Zulehner, Paler,
// Wille, TCAD 2019 — the heuristic behind MQT QMAP): the circuit is
// partitioned into layers of compatible two-qubit gates; for every layer
// an A* search over SWAP insertions finds a cheap mapping under which the
// whole layer is executable, with a one-layer discounted lookahead. Each
// layer is optimized mostly in isolation, which lets the mapping drift —
// the behaviour behind QMAP's large optimality gaps in the paper.
//
// The A* search is built for throughput in the SABRE-engine style (see
// docs/performance.md): search nodes live in a flat arena addressed by
// index (no *state pointers), the open list is an index heap replicating
// container/heap's ordering exactly with the f-cost stored inline in the
// heap entry, the closed set is a reusable open-addressed hash table with
// fused key/stamp slots, and per-layer gate tables are flattened to one
// gate per qubit (ASAP layers are qubit-disjoint). Expansion is
// wave-structured: each popped node's candidate successors are first
// enumerated in canonical order, then evaluated by pure side-effect-free
// work (closed-set probe against the pre-wave snapshot plus the heuristic
// delta), and finally merged — closed-set inserts, arena appends, heap
// pushes — by a single reducer in the same canonical order. The merge
// replays exactly the serial engine's decisions, so the evaluation phase
// can be chunked across a bounded pool.Gang at any worker count while
// heap contents, closed-set state, and tie-breaking stay bit-identical
// to Workers == 1 (pinned by TestGoldenCorpus and the worker-count
// sweep). The node budget is a single counter owned by the reducer loop,
// and cancellation is polled once per wave, so steady-state expansion
// performs zero heap allocations with or without a deadline armed.
package qmap

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/graph"
	"repro/internal/pool"
	"repro/internal/router"
)

// Options configures the mapper.
type Options struct {
	// MaxNodes bounds the A* search per layer; when exhausted the best
	// frontier state is taken and routing continues greedily.
	MaxNodes int
	// LookaheadWeight scales the next layer's distance contribution.
	// The engine computes costs in exact quarter-unit integers, so the
	// weight is quantized to the nearest multiple of 0.25 (the default
	// 0.75 is exact).
	LookaheadWeight float64
	// Seed drives the initial placement shuffle.
	Seed int64
	// Workers bounds the engine's internal expansion parallelism: each
	// expansion wave's candidate evaluation is chunked across this many
	// gang workers and merged in canonical order, so results are
	// bit-identical to Workers == 1 at any GOMAXPROCS. 0 or 1 evaluates
	// on the calling goroutine. When a worker budget is attached (see
	// SetWorkerBudget), Workers is a cap and idle budget slots decide
	// the actual count.
	Workers int
	// StrongHeuristic replaces the summed-excess heuristic with the
	// admissible layer bound max(max-gate excess, ceil(sum-excess/2)) —
	// one SWAP moves two qubits, so it can cut a single gate's distance
	// by at most one and the disjoint layer's summed excess by at most
	// two — plus the usual discounted lookahead term. The tighter bound
	// prunes expansions before they reach the heap but changes search
	// order, so it is opt-in and off by default (the golden corpus pins
	// the default engine).
	StrongHeuristic bool
}

func (o Options) withDefaults() Options {
	if o.MaxNodes <= 0 {
		o.MaxNodes = 20000
	}
	if o.LookaheadWeight == 0 {
		o.LookaheadWeight = 0.75
	}
	return o
}

// Router is the QMAP-style tool. A Router reuses its search scratch
// across Route calls and is therefore not safe for concurrent use;
// create one Router per goroutine (the harness builds one per job).
type Router struct {
	opts   Options
	eng    *engine      // A* scratch reused across calls
	budget *pool.Budget // optional shared worker budget
	stats  router.Counters
}

// Counters implements router.Instrumented: Decisions are A* node
// expansions (pops), Candidates the successor states generated,
// Restarts the per-layer searches run. The engine counts into plain
// fields owned by the serial reducer loop; deltas fold into the Router
// once per Route, so the wave loop stays atomic-free and 0 B/op. Like
// Route itself, not safe to call concurrently with Route.
func (r *Router) Counters() router.Counters { return r.stats }

// New returns a QMAP-style router.
func New(opts Options) *Router { return &Router{opts: opts.withDefaults()} }

// SetWorkerBudget implements router.BudgetedRouter: the router borrows
// idle slots from b (up to Options.Workers-1 of them) for the duration
// of each Route call, so its internal expansion parallelism and the
// caller's own worker pool draw on one budget and never oversubscribe
// cores. Borrowed slots only change wall-clock time, never results.
func (r *Router) SetWorkerBudget(b *pool.Budget) { r.budget = b }

// Name implements router.Router.
func (r *Router) Name() string { return "qmap" }

// Route implements router.Router. An initial mapping replaces the
// placement heuristic. Cancellation, polled once per A* expansion wave,
// cuts the per-layer A* short exactly as node exhaustion would; the
// layer loop then aborts before emitting anything from the truncated
// search, so no partial result escapes.
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

	// Resolve the expansion worker count: Options.Workers is the cap,
	// and an attached budget lends only slots that are actually idle.
	// The count affects wall-clock time only — never results.
	workers := r.opts.Workers
	if workers < 1 {
		workers = 1
	}
	if workers > 1 && r.budget != nil {
		borrowed := r.budget.TryAcquire(workers - 1)
		defer r.budget.Release(borrowed)
		workers = 1 + borrowed
	}
	if workers > 1 {
		e.gang = pool.NewGang(workers)
		defer func() { e.gang.Close(); e.gang = nil }()
	}

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

// searchLayer keeps the historical entry point used by internal tests:
// it runs the arena A* on a throwaway engine-backed search.
func (r *Router) searchLayer(start router.Mapping, layer, next []int, dag *circuit.DAG, dev *arch.Device) ([][2]int, router.Mapping) {
	e := r.ensureEngine(dev, len(start))
	return e.searchLayer(r.opts, start, layer, next, dag)
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

// astate is an A* node in the flat arena. To keep expansion cheap on
// 127-qubit devices the mapping is not stored per node: each node
// records only the swap that produced it and its parent index, plus an
// incrementally maintained heuristic, integer excess-distance sums, and
// a Zobrist hash. The full mapping is re-materialized by replaying the
// swap path when the node is popped. The f-cost lives in the node's
// heap entry, not here, so heap sifting never loads the arena.
type astate struct {
	parent int32 // arena index; -1 for the root
	swap   [2]int16
	depth  int32
	h4     int32 // heuristic at this node, in quarter units
	excess int16 // summed layer excess distance; 0 ⇔ goal
	look   int16 // summed lookahead excess distance
	hash   uint64
}

// heapEntry is one open-list slot: the f-cost is duplicated here so
// sifting compares adjacent heap memory instead of random arena loads.
// Every cost is an exact multiple of 0.25, so f is held as an int32 in
// quarter units — the map f -> 4f is strictly monotone and exact, so
// ordering and ties match the reference float engine bit for bit.
type heapEntry struct {
	f4  int32 // 4*(depth + h), exact
	idx int32 // arena index
}

// engine owns every piece of search scratch, sized once and reused
// across layers and Route calls so steady-state expansion allocates
// nothing.
type engine struct {
	g    *graph.Graph
	dist *graph.DistanceMatrix
	nQ   int // program register size (== padded device size)
	nP   int // physical qubit count

	// check polls for cancellation once per expansion wave; the zero
	// value (direct engine users, background contexts) is inert.
	check router.CtxChecker

	// Work counters owned by the serial reducer loop (identical at any
	// gang worker count): node pops and successors generated.
	cntPops int64
	cntGen  int64

	zob []uint64 // Zobrist keys, (program qubit, physical qubit) pairs

	states []astate
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
	// every candidate of the wave as the "before" side of the delta.
	curLD []int32
	curND []int32

	// Per-expansion candidate dedup on the program-qubit pair.
	candSeen    []int32
	expandEpoch int32

	// Wave buffers: phase 1 enumerates candidates in canonical order,
	// phase 2 fills the evaluation columns (pure, chunkable across the
	// gang), phase 3 merges serially in the same canonical order.
	wA, wB []int32  // normalized swap pair, a < b
	wHash  []uint64 // child Zobrist hash
	wSlot  []int32  // closed-set probe: first-empty slot, or -1 if present
	wH4    []int32  // child heuristic, quarter units
	wDX    []int32  // child layer-excess delta
	wDL    []int32  // child lookahead-excess delta

	// Strong-heuristic per-pop scratch: the three largest layer-gate
	// excesses with their gate indices (a candidate touches at most two
	// layer gates, so the max over the untouched rest is always here).
	topV [3]int32
	topI [3]int32

	// Swap-path replay scratch: the currently materialized path (swaps
	// and node indices, root-first) and the target-path staging buffer.
	m        router.Mapping
	inv      []int
	applied  [][2]int16
	appliedN []int32
	path     []int32

	gang *pool.Gang // non-nil while a Route call runs with Workers > 1
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
		candSeen: make([]int32, nQ*nQ),
		m:        make(router.Mapping, nQ),
		inv:      make([]int, nP),
	}
}

// searchLayer runs A* from the current mapping to one under which every
// layer gate is executable. Candidate moves are SWAPs on coupler edges
// touching the layer's qubits. Returns the swap sequence and final
// mapping; on node exhaustion, the most promising frontier state.
//
// The loop is wave-structured: each pop expands through enumerate →
// evaluate → merge phases. Only the evaluate phase runs off the calling
// goroutine (when a gang is attached), so the node counter and the
// cancellation poll are owned by this single reducer loop in serial and
// parallel mode alike.
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
	rootX, rootLK, rootMax := int32(0), int32(0), int32(0)
	for gi := 0; gi < nL; gi++ {
		x := int32(dist.At(start[e.lq0[gi]], start[e.lq1[gi]]) - 1)
		rootX += x
		if x > rootMax {
			rootMax = x
		}
	}
	for gi := 0; gi < nN; gi++ {
		rootLK += int32(dist.At(start[e.nq0[gi]], start[e.nq1[gi]]) - 1)
	}

	e.states = e.states[:0]
	e.heap = e.heap[:0]
	e.closed.reset()
	// Costs are exact quarter-unit integers: a layer excess step is worth
	// 4 and a lookahead step w4 = round(4*LookaheadWeight) (3 at the 0.75
	// default, where the quantization is exact).
	w4 := int32(math.Round(4 * opts.LookaheadWeight))
	root := astate{parent: -1, h4: 4*rootX + w4*rootLK, hash: hash0, excess: int16(rootX), look: int16(rootLK)}
	if opts.StrongHeuristic {
		root.h4 = strongH4(w4, rootX, rootLK, rootMax)
	}
	e.states = append(e.states, root)
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
	// single MaxNodes counter, owned by this reducer loop and counted
	// identically at any worker count; Tick polls once per wave.
	bestFrontier := int32(0)
	nodes := 0
	for len(e.heap) > 0 && nodes < opts.MaxNodes && !e.check.Tick() {
		cur := e.heapPop()
		nodes++
		e.cntPops++
		if e.states[cur].excess == 0 {
			// Integer excess is exact: 0 ⇔ every layer gate at distance 1.
			e.apply(cur, m, inv)
			return e.appliedSeq(), m.Clone()
		}
		e.apply(cur, m, inv)
		if e.states[cur].h4 < e.states[bestFrontier].h4 {
			bestFrontier = cur
		}

		// The wave's shared "before" side: current gate distances.
		for gi := 0; gi < nL; gi++ {
			e.curLD[gi] = int32(dist.At(m[e.lq0[gi]], m[e.lq1[gi]]))
		}
		for gi := 0; gi < nN; gi++ {
			e.curND[gi] = int32(dist.At(m[e.nq0[gi]], m[e.nq1[gi]]))
		}
		if opts.StrongHeuristic {
			e.topV = [3]int32{-1, -1, -1}
			e.topI = [3]int32{-1, -1, -1}
			for gi := 0; gi < nL; gi++ {
				x := e.curLD[gi] - 1
				switch {
				case x > e.topV[0]:
					e.topV[2], e.topI[2] = e.topV[1], e.topI[1]
					e.topV[1], e.topI[1] = e.topV[0], e.topI[0]
					e.topV[0], e.topI[0] = x, int32(gi)
				case x > e.topV[1]:
					e.topV[2], e.topI[2] = e.topV[1], e.topI[1]
					e.topV[1], e.topI[1] = x, int32(gi)
				case x > e.topV[2]:
					e.topV[2], e.topI[2] = x, int32(gi)
				}
			}
		}

		// Phase 1 — enumerate: SWAPs on coupler edges touching active
		// qubits, deduplicated on the program pair, in canonical order.
		e.expandEpoch++
		curHash := e.states[cur].hash
		e.wA, e.wB, e.wHash = e.wA[:0], e.wB[:0], e.wHash[:0]
		for gi := 0; gi < nL; gi++ {
			for k := 0; k < 2; k++ {
				q := int(e.lq0[gi])
				if k == 1 {
					q = int(e.lq1[gi])
				}
				p := m[q]
				for _, pn := range g.Neighbors(p) {
					qn := inv[pn]
					a, b := q, qn
					if a > b {
						a, b = b, a
					}
					if e.candSeen[a*e.nQ+b] == e.expandEpoch {
						continue
					}
					e.candSeen[a*e.nQ+b] = e.expandEpoch
					pa, pb := m[a], m[b]
					nh := curHash ^ e.zob[a*nP+pa] ^ e.zob[a*nP+pb] ^ e.zob[b*nP+pb] ^ e.zob[b*nP+pa]
					e.wA = append(e.wA, int32(a))
					e.wB = append(e.wB, int32(b))
					e.wHash = append(e.wHash, nh)
				}
			}
		}
		nw := len(e.wA)
		e.cntGen += int64(nw)
		if cap(e.wSlot) < nw {
			e.wSlot = make([]int32, nw)
			e.wH4 = make([]int32, nw)
			e.wDX = make([]int32, nw)
			e.wDL = make([]int32, nw)
		}
		e.wSlot = e.wSlot[:nw]
		e.wH4 = e.wH4[:nw]
		e.wDX = e.wDX[:nw]
		e.wDL = e.wDL[:nw]

		// Phase 2 — evaluate: pure per-candidate work against the
		// pre-wave closed-set snapshot and the unmutated mapping. The
		// chunking (or lack of it) cannot change any output value.
		curH4 := e.states[cur].h4
		curX := int32(e.states[cur].excess)
		curLK := int32(e.states[cur].look)
		if e.gang != nil && nw >= 48 {
			parts := e.gang.Workers()
			chunk := (nw + parts - 1) / parts
			e.gang.Run(parts, func(part int) {
				lo := part * chunk
				hi := lo + chunk
				if hi > nw {
					hi = nw
				}
				if lo < hi {
					e.evalWave(opts, w4, lo, hi, curH4, curX, curLK)
				}
			})
		} else {
			e.evalWave(opts, w4, 0, nw, curH4, curX, curLK)
		}

		// Phase 3 — merge: replay the serial engine's closed-set inserts,
		// arena appends, and heap pushes in canonical order. A candidate
		// whose snapshot probe missed can still lose to an earlier
		// same-wave insert of the same key; addAt resumes the probe at
		// the cached slot, which linear probing keeps exact.
		curDepth := e.states[cur].depth
		grown := false
		for i := 0; i < nw; i++ {
			slot := e.wSlot[i]
			if slot < 0 {
				continue
			}
			var added bool
			if grown {
				added = e.closed.addIfAbsent(e.wHash[i])
			} else {
				added, grown = e.closed.addAt(e.wHash[i], slot)
			}
			if !added {
				continue
			}
			ns := astate{
				parent: cur,
				swap:   [2]int16{int16(e.wA[i]), int16(e.wB[i])},
				depth:  curDepth + 1,
				excess: int16(curX + e.wDX[i]),
				look:   int16(curLK + e.wDL[i]),
				h4:     e.wH4[i],
				hash:   e.wHash[i],
			}
			idx := int32(len(e.states))
			e.states = append(e.states, ns)
			e.heapPush(heapEntry{f4: 4*ns.depth + ns.h4, idx: idx})
		}
	}
	// Exhausted: hand the most promising state back; the caller finishes
	// greedily.
	e.apply(bestFrontier, m, inv)
	return e.appliedSeq(), m.Clone()
}

// evalWave fills the evaluation columns for wave candidates [lo, hi):
// the closed-set snapshot probe and, for absent candidates, the child's
// heuristic and integer excess deltas. It reads only pre-wave state —
// the mapping is never mutated mid-wave — so disjoint ranges can run on
// gang workers concurrently and produce bit-identical columns.
func (e *engine) evalWave(opts Options, w4 int32, lo, hi int, curH4, curX, curLK int32) {
	dist := e.dist
	m := e.m

	// First probe step for every candidate up front: the home-slot loads
	// are independent, so the out-of-order core overlaps their cache
	// misses instead of serializing one probe per candidate. Probes that
	// don't resolve at the home slot record where to resume (encoded as
	// ^(next slot), always <= -2) and finish below on warm lines.
	slots := e.closed.slots
	mask := len(slots) - 1
	epoch := e.closed.epoch
	for i := lo; i < hi; i++ {
		h := int(splitmix64(e.wHash[i])) & mask
		sl := slots[h]
		if sl.stamp != epoch {
			e.wSlot[i] = int32(h) // absent; home is the first empty slot
		} else if sl.key == e.wHash[i] {
			e.wSlot[i] = -1 // present
		} else {
			e.wSlot[i] = ^int32(h + 1) // resume at h+1
		}
	}

	for i := lo; i < hi; i++ {
		if s0 := e.wSlot[i]; s0 < -1 {
			// Finish the collision chain; the lines are warm now.
			j := int(^s0) & mask
			for {
				sl := slots[j]
				if sl.stamp != epoch {
					e.wSlot[i] = int32(j)
					break
				}
				if sl.key == e.wHash[i] {
					e.wSlot[i] = -1
					break
				}
				j = (j + 1) & mask
			}
		}
		if e.wSlot[i] < 0 {
			continue
		}
		a, b := int(e.wA[i]), int(e.wB[i])
		pa, pb := m[a], m[b]

		// The gates that can move: at most one layer and one lookahead
		// gate per endpoint, deduplicated when a and b share one. The
		// accumulation order (a's layer gate, a's lookahead gate, b's
		// layer gate, b's lookahead gate) and every float operation
		// replicate the reference hDelta exactly.
		gLa, gNa, gLb, gNb := int32(-1), int32(-1), int32(-1), int32(-1)
		if e.qStamp[a] == e.layerEpoch {
			gLa, gNa = e.qLGate[a], e.qNGate[a]
		}
		if e.qStamp[b] == e.layerEpoch {
			gLb, gNb = e.qLGate[b], e.qNGate[b]
		}
		if gLb >= 0 && gLb == gLa {
			gLb = -1
		}
		if gNb >= 0 && gNb == gNa {
			gNb = -1
		}

		// newPos applies the candidate swap positionally: a moves to
		// b's position and vice versa; everyone else stays put.
		newPos := func(q int) int {
			switch q {
			case a:
				return pb
			case b:
				return pa
			}
			return m[q]
		}
		dh4 := int32(0)
		dx, dl := int32(0), int32(0)
		newXa, newXb := int32(-1), int32(-1)
		if gLa >= 0 {
			nd := dist.At(newPos(int(e.lq0[gLa])), newPos(int(e.lq1[gLa])))
			di := int32(nd) - e.curLD[gLa]
			dh4 += 4 * di
			dx += di
			newXa = int32(nd - 1)
		}
		if gNa >= 0 {
			nd := dist.At(newPos(int(e.nq0[gNa])), newPos(int(e.nq1[gNa])))
			di := int32(nd) - e.curND[gNa]
			dh4 += w4 * di
			dl += di
		}
		if gLb >= 0 {
			nd := dist.At(newPos(int(e.lq0[gLb])), newPos(int(e.lq1[gLb])))
			di := int32(nd) - e.curLD[gLb]
			dh4 += 4 * di
			dx += di
			newXb = int32(nd - 1)
		}
		if gNb >= 0 {
			nd := dist.At(newPos(int(e.nq0[gNb])), newPos(int(e.nq1[gNb])))
			di := int32(nd) - e.curND[gNb]
			dh4 += w4 * di
			dl += di
		}
		e.wDX[i] = dx
		e.wDL[i] = dl
		if opts.StrongHeuristic {
			// Max gate excess after the swap: the best untouched gate is
			// among the pop's top three (at most two gates are touched),
			// then the touched gates' new excesses compete.
			maxG := int32(0)
			for t := 0; t < 3; t++ {
				if e.topV[t] < 0 {
					break
				}
				if e.topI[t] != gLa && e.topI[t] != gLb {
					maxG = e.topV[t]
					break
				}
			}
			if newXa > maxG {
				maxG = newXa
			}
			if newXb > maxG {
				maxG = newXb
			}
			e.wH4[i] = strongH4(w4, curX+dx, curLK+dl, maxG)
		} else {
			e.wH4[i] = curH4 + dh4
		}
	}
}

// strongH4 is the opt-in admissible layer bound plus discounted
// lookahead, in quarter units.
func strongH4(w4, sumX, lookX, maxX int32) int32 {
	h := maxX
	if c := (sumX + 1) / 2; c > h {
		h = c
	}
	return 4*h + w4*lookX
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

func (e *engine) heapPop() int32 {
	n := len(e.heap) - 1
	e.heap[0], e.heap[n] = e.heap[n], e.heap[0]
	e.heapDown(0, n)
	x := e.heap[n]
	e.heap = e.heap[:n]
	return x.idx
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
// which membership tests allocate nothing. Key and epoch stamp share a
// slot, so a probe touches one cache line. The load factor is kept at
// 7/8 — probe runs get longer, but the table stays half the size and
// largely cache-resident, which wins on big searches; membership
// decisions are load-factor-independent, so pinned outputs don't move.
// Presence is tracked by the stamp, so a stored key of 0 is
// representable.
type u64set struct {
	slots []kslot
	epoch int32
	count int
}

type kslot struct {
	key   uint64
	stamp int32
}

func (s *u64set) reset() {
	s.epoch++
	s.count = 0
	if len(s.slots) == 0 {
		s.grow(1024)
	}
}

func (s *u64set) grow(n int) {
	old := s.slots
	s.slots = make([]kslot, n)
	for _, sl := range old {
		if sl.stamp == s.epoch {
			s.insert(sl.key)
		}
	}
}

func (s *u64set) insert(k uint64) {
	mask := len(s.slots) - 1
	i := int(splitmix64(k)) & mask
	for s.slots[i].stamp == s.epoch {
		i = (i + 1) & mask
	}
	s.slots[i] = kslot{key: k, stamp: s.epoch}
}

// probe reports whether k is present; when absent, it returns the first
// empty slot on k's probe path (a later addAt resumes there).
func (s *u64set) probe(k uint64) (int32, bool) {
	mask := len(s.slots) - 1
	i := int(splitmix64(k)) & mask
	for s.slots[i].stamp == s.epoch {
		if s.slots[i].key == k {
			return int32(i), true
		}
		i = (i + 1) & mask
	}
	return int32(i), false
}

// addAt inserts k resuming the probe at slot (a first-empty position
// previously returned by probe). Inserts that landed between the probe
// and this call sit at or after slot on k's probe path — linear probing
// never moves a key — so resuming is exact: a duplicate inserted since
// the probe is still found, and the first empty slot is still the slot
// the serial engine would have chosen. Reports whether k was inserted
// and whether the table grew (growth invalidates other cached slots).
func (s *u64set) addAt(k uint64, slot int32) (added, grew bool) {
	mask := len(s.slots) - 1
	i := int(slot)
	for s.slots[i].stamp == s.epoch {
		if s.slots[i].key == k {
			return false, false
		}
		i = (i + 1) & mask
	}
	s.slots[i] = kslot{key: k, stamp: s.epoch}
	s.count++
	if s.count*8 > len(s.slots)*7 {
		s.grow(len(s.slots) * 2)
		return true, true
	}
	return true, false
}

// addIfAbsent inserts k and reports true when it was not present.
func (s *u64set) addIfAbsent(k uint64) bool {
	added, _ := s.addAt(k, int32(int(splitmix64(k))&(len(s.slots)-1)))
	return added
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
