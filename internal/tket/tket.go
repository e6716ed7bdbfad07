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
// endpoints, plus per-depth integer base sums. It is rebuilt only when
// the pending set changes and is updated in place after an accepted
// swap, by re-measuring the gates on the two qubits that moved. Each
// candidate swap is scored positionally — each qubit read at the other's
// location — as an integer distance delta over those same gates. Sums
// stay in integers until the final discount weighting, so scores — and
// therefore routing decisions — are bit-identical to the straightforward
// evaluation (pinned by TestGoldenCorpus).
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

// Options configures the router.
type Options struct {
	// LookaheadSlices is how many upcoming slices contribute to the swap
	// score (discounted geometrically by LookaheadDiscount).
	LookaheadSlices int
	// LookaheadDiscount in (0,1] scales successive slices' contributions.
	LookaheadDiscount float64
	// Seed drives tie-breaking and the placement shuffle.
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.LookaheadSlices <= 0 {
		o.LookaheadSlices = 2
	}
	if o.LookaheadDiscount == 0 {
		o.LookaheadDiscount = 0.5
	}
	return o
}

// Router is the t|ket⟩-style tool. A Router reuses its scratch buffers
// across Route calls and is therefore not safe for concurrent use;
// create one Router per goroutine (the harness builds one per job).
type Router struct {
	opts    Options
	initial router.Mapping // non-nil: skip placement
	eng     *engine        // scratch reused across calls on one device size
	stats   router.Counters
}

// Counters implements router.Instrumented: Decisions are swap decisions,
// Candidates the candidate SWAPs scored while making them, Restarts the
// Route calls (the tool is single-attempt). Like Route itself, not safe
// to call concurrently with Route.
func (r *Router) Counters() router.Counters { return r.stats }

// New returns a t|ket⟩-style router.
func New(opts Options) *Router { return &Router{opts: opts.withDefaults()} }

// RouteFrom implements router.PlacedRouter.
func (r *Router) RouteFrom(c *circuit.Circuit, dev *arch.Device, initial router.Mapping) (*router.Result, error) {
	pinned := &Router{opts: r.opts, initial: router.PadMapping(initial, dev.NumQubits())}
	res, err := pinned.Route(c, dev)
	r.stats.Add(pinned.stats)
	return res, err
}

// Name implements router.Router.
func (r *Router) Name() string { return "tket" }

// Route implements router.Router.
func (r *Router) Route(c *circuit.Circuit, dev *arch.Device) (*router.Result, error) {
	return r.RouteCtx(context.Background(), c, dev)
}

// RouteCtx implements router.RouterCtx: Route under a cancellation
// context, polled once per swap decision.
func (r *Router) RouteCtx(ctx context.Context, c *circuit.Circuit, dev *arch.Device) (*router.Result, error) {
	p, err := router.Prepare(c, dev)
	if err != nil {
		return nil, fmt.Errorf("tket: %w", err)
	}
	return r.RoutePreparedCtx(ctx, p)
}

// RoutePrepared implements router.PreparedRouter: it routes from a
// shared pre-built context, producing exactly the result Route would.
func (r *Router) RoutePrepared(p *router.Prepared) (*router.Result, error) {
	return r.RoutePreparedCtx(context.Background(), p)
}

// RoutePreparedCtx implements router.PreparedRouterCtx.
func (r *Router) RoutePreparedCtx(ctx context.Context, p *router.Prepared) (*router.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("tket: %w", err)
	}
	dev := p.Device
	skeleton := p.Skeleton
	rng := rand.New(rand.NewSource(r.opts.Seed))

	dag := p.DAG()
	slices := p.Layers()

	var mapping router.Mapping
	if r.initial != nil {
		mapping = r.initial.Clone()
	} else {
		mapping = place(skeleton, dev, rng)
	}
	initial := mapping.Clone()
	lay := &layout{m: mapping, inv: mapping.Inverse(dev.NumQubits())}

	// The cache key is the device's coupling graph (devices are
	// immutable, so pointer identity suffices): matching on size alone
	// would reuse another same-size device's adjacency and distances.
	if r.eng == nil || r.eng.g != dev.Graph() {
		r.eng = newEngine(dev, r.opts)
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
		for len(pending) > 0 {
			if e.check.Tick() {
				return nil, fmt.Errorf("tket: %w", e.check.Err())
			}
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

			// Greedy SWAP choice: candidates are the couplers touching a
			// pending qubit, each scored as an integer delta over the
			// gates on its two qubits.
			if dirty {
				e.rebuild(pending, slices, si, dag, lay)
				dirty = false
			}
			cands := e.collectCandidates(lay)
			r.stats.Decisions++
			r.stats.Candidates += int64(len(cands))
			bestIdx, bestScore := -1, 0.0
			var bestDelta0 int64
			for ci := range cands {
				score, d0 := e.score(int(cands[ci][0]), int(cands[ci][1]), lay)
				if bestIdx == -1 || score < bestScore || (score == bestScore && rng.Intn(2) == 0) {
					bestIdx, bestScore, bestDelta0 = ci, score, d0
				}
			}
			if bestIdx == -1 {
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
			a, b := int(cands[bestIdx][0]), int(cands[bestIdx][1])
			lay.swap(a, b)
			e.moved(a, b, lay)
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
		InitialMapping: initial,
		Transpiled:     woven,
		SwapCount:      swaps,
		Trials:         1,
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

	lookahead int     // Options.LookaheadSlices
	discount  float64 // Options.LookaheadDiscount

	// check polls for cancellation once per routing iteration; the zero
	// value (direct engine users, background contexts) is inert.
	check router.CtxChecker

	// Candidate dedup: epoch increments once per swap decision and
	// candSeen stamps coupler ids. Under the padded layout every physical
	// qubit is occupied, so program pairs and couplers are in bijection
	// and the stamp admits exactly the pairs a pair table would, in the
	// same first-seen order.
	epoch    int32
	candSeen []int32    // coupler id -> epoch it was emitted
	nbrEdge  [][]int32  // physical qubit -> coupler ids parallel to Neighbors
	cands    [][2]int32 // candidate swaps (program qubits, a < b)

	// Decision state, keyed to the pending set. recs holds the pending
	// gates (depth 0, in pending order) then the lookahead slices; each
	// record is threaded onto both endpoints' lists. base[d] is the
	// current distance sum of depth d and delta[d] a candidate's change
	// to it; sums stay integral until weighting.
	recs     []gateRec
	nPending int     // recs[:nPending] are the pending gates
	head     []int32 // program qubit -> first list node (-1: no scored gate)
	depths   int     // lookahead depths in range of the current slice
	base     []int64
	delta    []int64

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

func newEngine(dev *arch.Device, opts Options) *engine {
	nQ := dev.NumQubits()
	head := make([]int32, nQ)
	for i := range head {
		head[i] = -1
	}
	return &engine{
		g:         dev.Graph(),
		dist:      dev.Distances(),
		lookahead: opts.LookaheadSlices,
		discount:  opts.LookaheadDiscount,
		candSeen:  make([]int32, dev.NumCouplers()),
		nbrEdge:   dev.Graph().NeighborEdgeIDs(),
		cands:     make([][2]int32, 0, dev.NumCouplers()),
		// A slice's gates are qubit-disjoint, so each depth holds at most
		// nQ/2 of them.
		recs:  make([]gateRec, 0, (opts.LookaheadSlices+1)*(nQ/2)),
		head:  head,
		base:  make([]int64, opts.LookaheadSlices+1),
		delta: make([]int64, opts.LookaheadSlices+1),
	}
}

// rebuild records the pending gates and the lookahead slices of slice si
// under the current layout, replacing the previous pending set's state.
func (e *engine) rebuild(pending []int, slices [][]int, si int, dag *circuit.DAG, lay *layout) {
	for i := range e.recs {
		e.head[e.recs[i].q[0]], e.head[e.recs[i].q[1]] = -1, -1
	}
	e.recs = e.recs[:0]
	clear(e.base)
	e.depths = min(e.lookahead, len(slices)-1-si)
	e.add(pending, 0, dag, lay)
	e.nPending = len(pending)
	for d := 1; d <= e.depths; d++ {
		e.add(slices[si+d], d, dag, lay)
	}
}

func (e *engine) add(gates []int, depth int, dag *circuit.DAG, lay *layout) {
	for _, v := range gates {
		gt := dag.Gate(v)
		d := int32(e.dist.At(lay.m[gt.Q0], lay.m[gt.Q1]))
		e.base[depth] += int64(d)
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
// swapped locations in lay, so every record distance and base sum again
// equals a rebuild under the new layout. No other gate's distance
// changed; a gate on exactly (a, b) is visited twice, the second time
// with nothing left to update.
func (e *engine) moved(a, b int, lay *layout) {
	for _, q := range [2]int{a, b} {
		for node := e.head[q]; node >= 0; {
			rec := &e.recs[node>>1]
			d := int32(e.dist.At(lay.m[rec.q[0]], lay.m[rec.q[1]]))
			e.base[rec.depth] += int64(d - rec.dist)
			rec.dist = d
			node = rec.next[node&1]
		}
	}
}

// collectCandidates returns the program-qubit pairs of coupler edges
// touching a qubit of a pending gate, in first-seen order.
func (e *engine) collectCandidates(lay *layout) [][2]int32 {
	e.epoch++
	ep := e.epoch
	seen, m, inv := e.candSeen, lay.m, lay.inv
	cands := e.cands[:0]
	for _, rec := range e.recs[:e.nPending] {
		for _, q := range rec.q {
			p := m[q]
			eids := e.nbrEdge[p]
			for j, pn := range e.g.Neighbors(p) {
				if seen[eids[j]] == ep {
					continue
				}
				seen[eids[j]] = ep
				a, b := q, int32(inv[pn])
				if a > b {
					a, b = b, a
				}
				cands = append(cands, [2]int32{a, b})
			}
		}
	}
	e.cands = cands
	return cands
}

// score evaluates the discounted slice-distance score of swapping
// program qubits a and b, positionally: a is read at b's location, b at
// a's, and the layout itself is never touched. Only the gates on a's and
// b's lists can move; a gate on exactly (a, b) appears in both with a
// zero delta, so no dedup is needed. The weighted total replays the
// exact float operation order of the direct evaluation over the integer
// sums, so scores are bit-identical. The returned delta0 is the
// current-slice change — the strict-improvement test the caller applies.
func (e *engine) score(a, b int, lay *layout) (float64, int64) {
	recs, delta, m := e.recs, e.delta, lay.m
	clear(delta)
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
	total := float64(e.base[0] + delta[0])
	w := e.discount
	for d := 1; d <= e.depths; d++ {
		total += w * float64(e.base[d]+delta[d])
		w *= e.discount
	}
	return total, delta[0]
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
