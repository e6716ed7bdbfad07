// Package tket implements a t|ket⟩-style qubit router (Cowtan et al.,
// "On the qubit routing problem", TQC 2019): the circuit is cut into
// timeslices of parallel two-qubit gates; while the current slice has
// unroutable gates, the router greedily applies the SWAP that most
// reduces the summed qubit distances of the current slice, with a
// discounted contribution from the following slices. Placement is a
// greedy interaction-degree embedding, mirroring t|ket⟩'s graph
// placement.
//
// The rigid slice boundary — no gate from a later slice can execute
// before the current slice completes — is the behaviour that drives
// t|ket⟩'s large optimality gap in the paper, and is reproduced here.
//
// The swap-decision loop is allocation-free in steady state, in the
// same style as the SABRE engine (see docs/performance.md). Its state is
// keyed to the pending set: one record per scored gate (endpoints, slice
// depth, current distance), threaded onto the per-qubit lists of both
// endpoints. It is rebuilt only when the pending set changes and is
// updated in place after an accepted swap, by re-measuring the gates on
// the two qubits that moved; the pending gates are rescanned only when
// one of those moved gates is now at distance 1. Each
// candidate swap is scored once, as it is enumerated, and positionally —
// each qubit read at the other's location — as an integer key over those
// same gates: 4·δ0 + 2·δ1 + δ2, the per-slice distance deltas weighted by
// the discount scaled to integers. The key orders and ties candidates
// exactly as the discounted float sum of the straightforward evaluation
// does (see score), so routing decisions and the tie-breaking random
// stream are bit-identical to it (pinned by TestGoldenCorpus).
package tket

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

// The score counts the current slice and the next two, each following
// slice weighted half as much as the one before it: 1, 1/2 and 1/4, or
// 4, 2 and 1 in score's integer key.
const lookaheadSlices = 2

// Options configures the router.
type Options struct {
	// Seed drives tie-breaking and the placement shuffle.
	Seed int64
}

// Router is the t|ket⟩-style tool. A Router reuses its scratch buffers
// across Route calls and is therefore not safe for concurrent use;
// create one Router per goroutine (the harness builds one per job).
type Router struct {
	opts  Options
	eng   *engine // scratch reused across calls on one device size
	stats router.Counters
}

// Counters implements router.Instrumented: Decisions are swap decisions,
// Candidates the candidate SWAPs scored while making them, Restarts the
// Route calls (the tool is single-attempt). Like Route itself, not safe
// to call concurrently with Route.
func (r *Router) Counters() router.Counters { return r.stats }

// New returns a t|ket⟩-style router.
func New(opts Options) *Router { return &Router{opts: opts} }

// Name implements router.Router.
func (r *Router) Name() string { return "tket" }

// Route implements router.Router. An initial mapping replaces the
// placement heuristic; cancellation is polled once per swap decision.
func (r *Router) Route(ctx context.Context, p *router.Prepared, initial router.Mapping) (*router.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("tket: %w", err)
	}
	dev := p.Device
	skeleton := p.Skeleton
	rng := rand.New(rand.NewSource(r.opts.Seed))

	dag := p.DAG()
	slices := p.Layers()

	var mapping router.Mapping
	if initial != nil {
		mapping = router.PadMapping(initial, dev.NumQubits())
	} else {
		mapping = place(skeleton, dev, rng)
	}
	placed := mapping.Clone()
	lay := &layout{m: mapping, inv: mapping.Inverse(dev.NumQubits())}

	// The cache key is the device's coupling graph (devices are
	// immutable, so pointer identity suffices): matching on size alone
	// would reuse another same-size device's adjacency and distances.
	if r.eng == nil || r.eng.g != dev.Graph() {
		r.eng = newEngine(dev)
	}
	e := r.eng
	e.check.Reset(ctx)

	g := e.g
	dist := e.dist
	// The routed skeleton holds every DAG gate plus the SWAPs; twice the
	// gate count is a first guess at its size, and append grows past it.
	out := &circuit.Circuit{NumQubits: skeleton.NumQubits, Gates: make([]circuit.Gate, 0, 2*len(skeleton.Gates))}
	swaps := 0

	for si := 0; si < len(slices); si++ {
		e.pending = append(e.pending[:0], slices[si]...)
		pending := e.pending
		// dirty marks the decision state stale: set whenever the pending
		// set changes (a new slice, progress) or qubits move outside an
		// accepted swap (a forced shortest-path step).
		dirty := true
		// scan is cleared after an accepted swap that left every moved
		// pending gate at distance > 1: no other pending gate's endpoints
		// moved, so the executable scan would find nothing.
		scan := true
		for len(pending) > 0 {
			if e.check.Tick() {
				return nil, fmt.Errorf("tket: %w", e.check.Err())
			}
			if scan {
				// Emit everything currently executable in this slice. DAG
				// gates are valid by construction, so they are appended
				// directly.
				progressed := false
				rest := pending[:0]
				for _, v := range pending {
					gt := dag.Gate(v)
					if g.HasEdge(lay.m[gt.Q0], lay.m[gt.Q1]) {
						out.Gates = append(out.Gates, gt)
						progressed = true
					} else {
						rest = append(rest, v)
					}
				}
				pending = rest
				if len(pending) == 0 {
					break
				}
				if progressed {
					dirty = true
					continue
				}
			}
			scan = true

			// Greedy SWAP choice: candidates are the couplers touching a
			// pending qubit, each scored as an integer key over the gates
			// on its two qubits.
			if dirty {
				e.rebuild(pending, slices, si, dag, lay)
				dirty = false
			}
			a, b, bestDelta0, n := e.decide(lay, rng)
			r.stats.Decisions++
			r.stats.Candidates += int64(n)
			if n == 0 {
				return nil, fmt.Errorf("tket: no candidate swaps for a pending slice")
			}
			// Only accept a swap that strictly improves the current-slice
			// distance (delta < 0); otherwise force progress along a
			// shortest path for the first pending gate (prevents
			// oscillation).
			if bestDelta0 >= 0 {
				v := pending[0]
				gt := dag.Gate(v)
				for !g.HasEdge(lay.m[gt.Q0], lay.m[gt.Q1]) {
					p0, p1 := lay.m[gt.Q0], lay.m[gt.Q1]
					for _, pn := range g.Neighbors(p0) {
						if dist.At(pn, p1) < dist.At(p0, p1) {
							qn := lay.inv[pn]
							out.Gates = append(out.Gates, circuit.NewSwap(gt.Q0, qn))
							swaps++
							lay.swap(gt.Q0, qn)
							break
						}
					}
				}
				dirty = true
				continue
			}
			lay.swap(a, b)
			scan = e.moved(a, b, lay)
			out.Gates = append(out.Gates, circuit.NewSwap(a, b))
			swaps++
		}
	}

	woven, err := router.WeaveSingleQubitGates(p.Padded, out)
	if err != nil {
		return nil, fmt.Errorf("tket: %w", err)
	}
	r.stats.Restarts++
	return &router.Result{
		Tool:           r.Name(),
		InitialMapping: placed,
		Transpiled:     woven,
		SwapCount:      swaps,
	}, nil
}

type layout struct {
	m   router.Mapping
	inv []int
}

func (l *layout) swap(qa, qb int) {
	pa, pb := l.m[qa], l.m[qb]
	l.m[qa], l.m[qb] = pb, pa
	l.inv[pa], l.inv[pb] = qb, qa
}

// engine holds the decision loop's scratch. Everything is epoch-stamped
// (compared against the per-decision epoch instead of being cleared),
// length-reset with its backing array retained, or reset through the
// records that set it, so a steady-state swap decision performs zero
// heap allocations.
type engine struct {
	g    *graph.Graph
	dist *graph.DistanceMatrix

	// check polls for cancellation once per routing iteration; the zero
	// value (direct engine users, background contexts) is inert.
	check router.CtxChecker

	// Candidate dedup: epoch increments once per swap decision and
	// candSeen stamps coupler ids. Under the padded layout every physical
	// qubit is occupied, so program pairs and couplers are in bijection
	// and the stamp admits exactly the pairs a pair table would, in the
	// same first-seen order.
	epoch    int32
	candSeen []int32   // coupler id -> epoch it was scored
	nbrEdge  [][]int32 // physical qubit -> coupler ids parallel to Neighbors

	// Decision state, keyed to the pending set. recs holds the pending
	// gates (depth 0, in pending order) then the lookahead slices; each
	// record is threaded onto both endpoints' lists. A candidate's key
	// depends only on the distance changes of the gates it moves, so no
	// per-depth base sum is kept.
	recs     []gateRec
	nPending int     // recs[:nPending] are the pending gates
	head     []int32 // program qubit -> first list node (-1: no scored gate)

	pending []int // current-slice worklist (backing reused across slices)
}

// gateRec is one scored gate. Its list nodes are 2i, on q[0]'s list, and
// 2i+1, on q[1]'s, so a node names both its record and its endpoint.
type gateRec struct {
	q     [2]int32 // program-qubit endpoints
	next  [2]int32 // next node on q[k]'s list (-1 ends)
	depth int32    // 0 = pending, d = slice si+d
	dist  int32    // distance under the current layout
}

func newEngine(dev *arch.Device) *engine {
	nQ := dev.NumQubits()
	head := make([]int32, nQ)
	for i := range head {
		head[i] = -1
	}
	return &engine{
		g:        dev.Graph(),
		dist:     dev.Distances(),
		candSeen: make([]int32, dev.NumCouplers()),
		nbrEdge:  dev.Graph().NeighborEdgeIDs(),
		// A slice's gates are qubit-disjoint, so each depth holds at most
		// nQ/2 of them.
		recs: make([]gateRec, 0, (lookaheadSlices+1)*(nQ/2)),
		head: head,
	}
}

// rebuild records the pending gates and the lookahead slices of slice si
// under the current layout, replacing the previous pending set's state.
func (e *engine) rebuild(pending []int, slices [][]int, si int, dag *circuit.DAG, lay *layout) {
	for i := range e.recs {
		e.head[e.recs[i].q[0]], e.head[e.recs[i].q[1]] = -1, -1
	}
	e.recs = e.recs[:0]
	e.add(pending, 0, dag, lay)
	e.nPending = len(pending)
	for d := 1; d <= min(lookaheadSlices, len(slices)-1-si); d++ {
		e.add(slices[si+d], d, dag, lay)
	}
}

func (e *engine) add(gates []int, depth int, dag *circuit.DAG, lay *layout) {
	for _, v := range gates {
		gt := dag.Gate(v)
		d := int32(e.dist.At(lay.m[gt.Q0], lay.m[gt.Q1]))
		node := 2 * int32(len(e.recs))
		e.recs = append(e.recs, gateRec{
			q:     [2]int32{int32(gt.Q0), int32(gt.Q1)},
			next:  [2]int32{e.head[gt.Q0], e.head[gt.Q1]},
			depth: int32(depth),
			dist:  d,
		})
		e.head[gt.Q0], e.head[gt.Q1] = node, node+1
	}
}

// moved re-measures the gates on program qubits a and b after they
// swapped locations in lay, so every record distance again equals a
// rebuild under the new layout. No other gate's distance changed; a gate
// on exactly (a, b) is visited twice, the second time with nothing left
// to update. It reports whether a pending gate is now at distance 1: only
// such a gate can have become executable.
func (e *engine) moved(a, b int, lay *layout) (runnable bool) {
	for _, q := range [2]int{a, b} {
		for node := e.head[q]; node >= 0; {
			rec := &e.recs[node>>1]
			rec.dist = int32(e.dist.At(lay.m[rec.q[0]], lay.m[rec.q[1]]))
			runnable = runnable || rec.depth == 0 && rec.dist == 1
			node = rec.next[node&1]
		}
	}
	return runnable
}

// decide makes one swap decision: it enumerates the couplers touching a
// qubit of a pending gate in first-seen order and scores each the first
// time it is seen. The lowest key wins; an equal key replaces the running
// best on rng.Intn(2) == 0, so ties draw from rng in enumeration order.
// It returns the chosen program-qubit pair (a < b), its current-slice
// delta and the number of candidates scored (0: no candidate, and no
// pair).
func (e *engine) decide(lay *layout, rng *rand.Rand) (a, b int, delta0 int64, n int) {
	e.epoch++
	ep := e.epoch
	seen, m, inv := e.candSeen, lay.m, lay.inv
	var bestKey int64
	for _, rec := range e.recs[:e.nPending] {
		for _, q := range rec.q {
			p := m[q]
			eids := e.nbrEdge[p]
			for j, pn := range e.g.Neighbors(p) {
				if seen[eids[j]] == ep {
					continue
				}
				seen[eids[j]] = ep
				qa, qb := int(q), inv[pn]
				if qa > qb {
					qa, qb = qb, qa
				}
				key, d0 := e.score(qa, qb, lay)
				n++
				if n == 1 || key < bestKey || (key == bestKey && rng.Intn(2) == 0) {
					a, b, delta0, bestKey = qa, qb, d0, key
				}
			}
		}
	}
	return a, b, delta0, n
}

// score evaluates swapping program qubits a and b positionally: a is
// read at b's location, b at a's, and the layout itself is never touched.
// Only the gates on a's and b's lists can move; a gate on exactly (a, b)
// appears in both with a zero delta, so no dedup is needed. With δd the
// change of slice d's distance sum, it returns the key 4·δ0 + 2·δ1 + δ2
// and δ0, the current-slice change the caller's strict-improvement test
// reads.
//
// The key is exact. The reference score is the float sum
// (b0+δ0) + (b1+δ1)/2 + (b2+δ2)/4 over the slice sums bd, which is
// (B + key)/4 for a B shared by every candidate of the decision. A
// slice's gates are qubit-disjoint, so on every admitted device (at most
// 4096 qubits) a slice sum is below 2048·4095 < 2^23, every term and
// partial sum is a multiple of 1/4 below 2^24, and each float64 step of
// the reference is exact. Comparing keys therefore orders and ties
// candidates exactly as comparing the floats does.
func (e *engine) score(a, b int, lay *layout) (key, delta0 int64) {
	recs, m := e.recs, lay.m
	var delta [lookaheadSlices + 1]int64
	pa, pb := m[a], m[b]
	rowA, rowB := e.dist.Row(pa), e.dist.Row(pb)
	for node := e.head[a]; node >= 0; {
		rec := &recs[node>>1]
		k := node & 1
		o := int(rec.q[k^1])
		po := m[o]
		if o == b {
			po = pa
		}
		delta[rec.depth] += int64(rowB[po] - rec.dist)
		node = rec.next[k]
	}
	for node := e.head[b]; node >= 0; {
		rec := &recs[node>>1]
		k := node & 1
		o := int(rec.q[k^1])
		po := m[o]
		if o == a {
			po = pb
		}
		delta[rec.depth] += int64(rowA[po] - rec.dist)
		node = rec.next[k]
	}
	return 4*delta[0] + 2*delta[1] + delta[2], delta[0]
}

// place produces the initial mapping: program qubits in decreasing
// interaction degree are assigned BFS-outward from the device's densest
// qubit, so heavily interacting qubits cluster — a simplified version of
// t|ket⟩'s graph placement.
func place(skeleton *circuit.Circuit, dev *arch.Device, rng *rand.Rand) router.Mapping {
	ig := skeleton.InteractionGraph()
	nQ := skeleton.NumQubits
	order := make([]int, nQ)
	for i := range order {
		order[i] = i
	}
	rng.Shuffle(nQ, func(i, j int) { order[i], order[j] = order[j], order[i] })
	sort.SliceStable(order, func(a, b int) bool {
		return ig.Degree(order[a]) > ig.Degree(order[b])
	})

	// Physical qubits BFS-ordered from the maximum-degree location.
	g := dev.Graph()
	hub, best := 0, -1
	for p := 0; p < g.N(); p++ {
		if g.Degree(p) > best {
			hub, best = p, g.Degree(p)
		}
	}
	distFromHub := g.BFSFrom(hub)
	phys := make([]int, g.N())
	for i := range phys {
		phys[i] = i
	}
	sort.SliceStable(phys, func(a, b int) bool { return distFromHub[phys[a]] < distFromHub[phys[b]] })

	mapping := make(router.Mapping, nQ)
	for i, q := range order {
		mapping[q] = phys[i]
	}
	return mapping
}
