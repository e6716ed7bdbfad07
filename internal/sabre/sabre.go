// Package sabre implements the SABRE swap-routing heuristic (Li, Ding,
// Xie, ASPLOS 2019) with the LightSABRE-style enhancements the paper
// evaluates through Qiskit 1.2.4: multi-trial random-restart search,
// bidirectional initial-mapping refinement, the extended lookahead set
// (size 20, weight 0.5) and qubit decay, plus the release valve that
// breaks livelocks. It also implements the decay-weighted lookahead the
// paper proposes in its Section IV-C case study, and an instrumentation
// hook that exposes per-decision swap costs for that case study.
//
// The routing engine is built for throughput: the forward/backward DAGs
// are constructed once per Route call and shared read-only across trial
// goroutines, distances come from the device's flat DistanceMatrix, and
// the per-swap-decision inner loop is allocation-free — epoch-stamped
// scratch buffers replace the per-decision maps, and the front-layer
// cost of a candidate swap is evaluated as an integer delta over the two
// touched qubits instead of re-summing the whole front layer. See
// docs/performance.md for the layout of the hot path and how to compare
// benchmarks.
package sabre

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/graph"
	"repro/internal/pool"
	"repro/internal/router"
)

// The cost function mirrors Qiskit's SabreSwap configuration, which the
// paper's case study dissects: an extended set of 20 gates weighted 0.5,
// a decay increment of 0.001 reset every 5 swap picks, and 3
// forward/backward passes to settle each trial's initial mapping.
const (
	extendedSetSize   = 20
	extendedSetWeight = 0.5
	decayIncrement    = 0.001
	decayResetEvery   = 5
	mappingPasses     = 3

	// DefaultTrials is the trial count of a zero Options.Trials.
	DefaultTrials = 32
)

// Options configures the router.
type Options struct {
	// Trials is the number of random-restart attempts; the best (fewest
	// SWAPs) wins. The paper runs LightSABRE with 1000.
	Trials int
	// Seed drives all randomness.
	Seed int64
	// LookaheadDecay, when in (0,1), weights extended-set gates by
	// LookaheadDecay^i with i the BFS collection index — the fix the
	// paper proposes after the Figure 5 analysis. 0 reproduces Qiskit's
	// uniform lookahead.
	LookaheadDecay float64
	// Trace, when set, receives every swap decision of the final recorded
	// pass of every trial; used by the case-study experiment.
	Trace func(TraceStep)
}

// TraceStep describes one swap decision for instrumentation.
type TraceStep struct {
	Trial      int
	FrontGates []circuit.Gate
	Candidates []SwapCost
	ChosenIdx  int
}

// SwapCost is the scored candidate swap of a decision point.
type SwapCost struct {
	ProgA, ProgB int     // program qubits swapped
	PhysA, PhysB int     // their physical locations
	Basic        float64 // front-layer term
	Lookahead    float64 // extended-set term (already weighted)
	Decay        float64 // decay multiplier applied
	Total        float64
}

func (o Options) withDefaults() Options {
	if o.Trials <= 0 {
		o.Trials = DefaultTrials
	}
	return o
}

// Router is a SABRE/LightSABRE layout synthesis tool.
type Router struct {
	opts   Options
	name   string
	budget *pool.Budget // optional shared worker budget

	// Work counters since construction (router.Instrumented). Trial
	// engines count into plain engine-local integers and merge here once
	// per worker, so the decision loop stays atomic-free and 0 B/op.
	decisions  atomic.Int64
	candidates atomic.Int64
	restarts   atomic.Int64
}

// Counters implements router.Instrumented: Decisions are swap decisions
// across all trials, Candidates the candidate SWAPs scored while making
// them, Restarts the independent trials run.
func (r *Router) Counters() router.Counters {
	return router.Counters{
		Decisions:  r.decisions.Load(),
		Candidates: r.candidates.Load(),
		Restarts:   r.restarts.Load(),
	}
}

// SetWorkerBudget implements router.BudgetedRouter: with a budget
// attached, the trial pool runs one worker on the calling goroutine and
// borrows idle slots for the rest instead of assuming it owns every
// CPU. Trial results are deterministic per trial index and merged by a
// fixed rule, so the worker count never changes the routed result.
func (r *Router) SetWorkerBudget(b *pool.Budget) { r.budget = b }

// New returns a LightSABRE-style router.
func New(opts Options) *Router {
	name := "lightsabre"
	if opts.LookaheadDecay > 0 {
		name = "lightsabre+decay"
	}
	return &Router{opts: opts.withDefaults(), name: name}
}

// Name implements router.Router.
func (r *Router) Name() string { return r.name }

// Route implements router.Router. The shared context's padded circuit,
// skeleton, and forward/backward DAGs are read-only across this
// router's trial goroutines. With an initial mapping the placement
// search and its settling passes are skipped: every trial routes from
// the pinned placement and trials differ only in tie-breaking
// randomness.
//
// Cancellation stops trial dispatch and is observed inside every
// running trial's routing loop through an amortized CtxChecker, so an
// uncancellable context costs nothing in the decision loop; once ctx is
// done ctx.Err() is returned instead of a partial result.
func (r *Router) Route(ctx context.Context, p *router.Prepared, initial router.Mapping) (*router.Result, error) {
	dev := p.Device
	work := p.Padded
	skeleton := p.Skeleton
	fwdDAG := p.DAG()
	bwdDAG := p.ReversedDAG()

	opts := r.opts
	var fixed router.Mapping
	if initial != nil {
		fixed = router.PadMapping(initial, dev.NumQubits())
	}

	// Trials are independent; run them across the available CPUs with
	// per-trial deterministic seeds. Each worker keeps only its best
	// trial, and ties break toward the lower trial index, so results do
	// not depend on scheduling and memory does not grow with the trial
	// count.
	workers := runtime.GOMAXPROCS(0)
	if workers > opts.Trials {
		workers = opts.Trials
	}
	if opts.Trace != nil {
		workers = 1 // keep trace callbacks single-threaded and ordered
	}
	if r.budget != nil && workers > 1 {
		// Shared-budget mode: the caller's goroutine is already paid for;
		// extra trial workers exist only if slots are idle right now.
		borrowed := r.budget.TryAcquire(workers - 1)
		defer r.budget.Release(borrowed)
		workers = 1 + borrowed
	}
	bests := make([]trialBest, workers)
	var wg sync.WaitGroup
	next := make(chan int)
	for w := range bests {
		wg.Add(1)
		go func(best *trialBest) {
			defer wg.Done()
			e := newPassEngine(dev, opts, fwdDAG.N())
			e.check.Reset(ctx)
			rng := rand.New(rand.NewSource(0))
			best.trial = -1
			for trial := range next {
				// Re-seeding restarts exactly the stream of
				// rand.New(rand.NewSource(seed)).
				rng.Seed(opts.Seed + 1000003*int64(trial))
				runTrial(e, fixed, skeleton.NumQubits, fwdDAG, bwdDAG, rng, trial)
				// Trials reach a worker in increasing order, so a later one
				// wins only with strictly fewer SWAPs. The next trial
				// records into the loser's buffers.
				if best.trial < 0 || e.swaps < best.swaps {
					best.trial, best.swaps = trial, e.swaps
					best.out, e.out = e.out, best.out
					best.initial, e.initial = e.initial, best.initial
				}
			}
			// One merge per worker, after all its trials: the engine's
			// plain counters reach the router's atomics off the hot path.
			r.decisions.Add(e.cntDecisions)
			r.candidates.Add(e.cntCandidates)
		}(&bests[w])
	}
dispatch:
	for trial := 0; trial < opts.Trials; trial++ {
		select {
		case next <- trial:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(next)
	wg.Wait()

	// A trial cut short by cancellation leaves a partial (invalid)
	// result, and an undispatched one none; ctx.Err() is necessarily
	// non-nil by then, so checking it here guarantees no truncated
	// routing ever escapes.
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("sabre: %w", err)
	}
	r.restarts.Add(int64(opts.Trials))

	// A worker may have received no trial at all.
	best := trialBest{trial: -1}
	for _, b := range bests {
		if b.trial >= 0 && (best.trial < 0 || b.swaps < best.swaps || b.swaps == best.swaps && b.trial < best.trial) {
			best = b
		}
	}
	woven, err := router.WeaveSingleQubitGates(work, best.out)
	if err != nil {
		return nil, fmt.Errorf("sabre: %w", err)
	}
	return &router.Result{
		Tool:           r.name,
		InitialMapping: best.initial,
		Transpiled:     woven,
		SwapCount:      best.swaps,
		Trials:         opts.Trials,
	}, nil
}

// trialBest is one worker's best trial so far: fewest SWAPs, then
// lowest trial index (trial is -1 until the worker finishes one).
type trialBest struct {
	trial   int
	swaps   int
	initial router.Mapping
	out     *circuit.Circuit
}

// runTrial performs one random-restart attempt: settle the initial
// mapping with forward/backward passes, then record the final pass,
// leaving its starting mapping in e.initial, its output in e.out and its
// SWAP count in e.swaps. A non-nil fixed mapping replaces the random
// placement and its settling passes. The engine's scratch buffers,
// e.initial and e.out included, are reused across passes and trials.
func runTrial(e *passEngine, fixed router.Mapping, nProg int, fwdDAG, bwdDAG *circuit.DAG, rng *rand.Rand, trial int) {
	mapping := e.mapping[:nProg]
	if fixed != nil {
		copy(mapping, fixed)
	} else {
		// rng.Perm(e.nQ)'s exact loop, into reused scratch.
		perm := e.perm
		for i := range perm {
			j := rng.Intn(i + 1)
			perm[i] = perm[j]
			perm[j] = i
		}
		copy(mapping, perm)
		for pass := 0; pass < mappingPasses; pass++ {
			e.run(fwdDAG, mapping, rng, false, nil, trial)
			e.run(bwdDAG, mapping, rng, false, nil, trial)
		}
	}

	if e.initial == nil {
		e.initial = make(router.Mapping, nProg)
	}
	copy(e.initial, mapping)
	e.run(fwdDAG, mapping, rng, true, e.opts.Trace, trial)
}

// passEngine routes one circuit per run call. All scratch is sized once
// at construction and stamped with a per-decision epoch, so the
// swap-decision loop performs zero heap allocations in steady state:
// no maps, no per-candidate slices, no cleared arrays.
type passEngine struct {
	dev  *arch.Device
	g    *graph.Graph
	dist *graph.DistanceMatrix
	opts Options
	nQ   int // padded register size == device qubit count

	// check polls for cancellation once per outer routing iteration.
	// The zero value is inert, so direct engine users (tests, the
	// background-context Route path) pay one branch per iteration.
	check router.CtxChecker

	// Per-pass state, reset at the top of run.
	indeg []int
	front []int
	decay []float64
	inv   []int // layout inverse scratch

	// Engine-local work counters: plain adds in the decision loop,
	// merged into the Router's atomics once per worker.
	cntDecisions  int64
	cntCandidates int64

	// Per-decision scratch. epoch increments once per swap decision;
	// every stamp array compares against it instead of being cleared.
	epoch    int32
	visited  []int32    // DAG node -> epoch it entered the extended-set BFS
	candSeen []int32    // coupler edge -> epoch it was emitted (see nbrEdge)
	nbrEdge  [][]int32  // physical qubit -> coupler ids parallel to Neighbors
	cands    [][2]int32 // candidate swaps (program qubits, a < b)

	// Front-keyed scratch, rebuilt only when the front layer changes.
	// Consecutive no-progress decisions differ only in qubit positions,
	// so the extended-set BFS, the flattened gate endpoints, and the
	// per-qubit gate lists are all reusable; only the per-decision
	// distance snapshots (fgD, extOld) move. frontEp stamps validity.
	frontDirty bool
	frontEp    int32
	extended   []int   // collected extended set (backing reused)
	extQueue   []int   // BFS queue for the extended set (backing reused)
	extN       int     // extended-set size
	extQ0      []int32 // extended index -> gate endpoints (flattened)
	extQ1      []int32
	extOld     []int32 // extended index -> gate distance at decision start
	extHead    []int32 // program qubit -> head of its extended-gate list
	extStamp   []int32 // program qubit -> front epoch extHead is valid for
	extIdx     []int32 // list node -> index into extended
	extOther   []int32 // list node -> the gate's other endpoint
	extNext    []int32 // list node -> next list node (-1 ends)
	fgN        int     // front-gate count
	fgQ0       []int32 // front-gate index -> endpoints (flattened)
	fgQ1       []int32
	fgD        []int32 // front-gate index -> distance at decision start
	frontGi    []int32 // program qubit -> its front-gate index
	frontOther []int32 // program qubit -> other endpoint of its front gate
	frontStmp  []int32 // program qubit -> front epoch frontGi is valid for

	// Recorded output of the last run with record=true; its gate buffer
	// is reused by the next recording. outCap remembers the longest
	// recording so a new buffer preallocates instead of growing through
	// append.
	out    *circuit.Circuit
	outCap int
	swaps  int

	// Per-trial scratch (see runTrial): the random placement, the
	// mapping the passes move, and the recorded pass's start.
	perm    []int
	mapping router.Mapping
	initial router.Mapping
}

func newPassEngine(dev *arch.Device, opts Options, dagN int) *passEngine {
	nQ := dev.NumQubits()
	es := extendedSetSize
	return &passEngine{
		dev:  dev,
		g:    dev.Graph(),
		dist: dev.Distances(),
		opts: opts,
		nQ:   nQ,

		indeg: make([]int, dagN),
		front: make([]int, 0, dagN),
		decay: make([]float64, nQ),
		inv:   make([]int, nQ),

		visited:  make([]int32, dagN),
		candSeen: make([]int32, dev.NumCouplers()),
		nbrEdge:  dev.Graph().NeighborEdgeIDs(),
		cands:    make([][2]int32, 0, dev.NumCouplers()),

		extended:   make([]int, 0, es),
		extQueue:   make([]int, 0, dagN+es),
		extQ0:      make([]int32, es),
		extQ1:      make([]int32, es),
		extOld:     make([]int32, es),
		extHead:    make([]int32, nQ),
		extStamp:   make([]int32, nQ),
		extIdx:     make([]int32, 2*es),
		extOther:   make([]int32, 2*es),
		extNext:    make([]int32, 2*es),
		fgQ0:       make([]int32, nQ),
		fgQ1:       make([]int32, nQ),
		fgD:        make([]int32, nQ),
		frontGi:    make([]int32, nQ),
		frontOther: make([]int32, nQ),
		frontStmp:  make([]int32, nQ),

		perm:    make([]int, nQ),
		mapping: make(router.Mapping, nQ),
	}
}

// layout pairs a mapping with its inverse for O(1) occupant lookups.
type layout struct {
	m   router.Mapping // program -> physical
	inv []int          // physical -> program (-1 unoccupied)
}

func newLayout(m router.Mapping, nPhys int) *layout {
	return &layout{m: m, inv: m.Inverse(nPhys)}
}

func (l *layout) swap(qa, qb int) {
	pa, pb := l.m[qa], l.m[qb]
	l.m[qa], l.m[qb] = pb, pa
	l.inv[pa], l.inv[pb] = qb, qa
}

// run routes dag's circuit starting from mapping, returning the final
// mapping. When recording, the transpiled skeleton and swap count are
// left in e.out / e.swaps.
func (e *passEngine) run(dag *circuit.DAG, mapping router.Mapping, rng *rand.Rand, record bool, trace func(TraceStep), trial int) router.Mapping {
	n := dag.N()
	dist := e.dist
	g := e.g
	inv := e.inv
	for i := range inv {
		inv[i] = -1
	}
	for q, p := range mapping {
		inv[p] = q
	}
	lay := &layout{m: mapping, inv: inv}

	if record {
		if e.out == nil {
			e.out = &circuit.Circuit{NumQubits: e.nQ, Gates: make([]circuit.Gate, 0, e.outCap)}
		}
		e.out.Gates = e.out.Gates[:0]
		e.swaps = 0
	}

	indeg := e.indeg[:n]
	for v := 0; v < n; v++ {
		indeg[v] = len(dag.Preds[v])
	}
	front := e.front[:0]
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			front = append(front, v)
		}
	}
	executed := 0
	decay := e.decay
	resetDecay := func() {
		for i := range decay {
			decay[i] = 1.0
		}
	}
	resetDecay()

	swapPicks := 0
	sinceProgress := 0
	releaseThreshold := 10 * extendedSetSize
	e.frontDirty = true

	// Persistent per-front distance snapshot: full recompute when the
	// front changes, incremental update after each accepted swap.
	baseFront := 0
	extBase := 0
	// scanSkip is set after an accepted swap that provably made no front
	// gate executable (both moved qubits' front gates stay at distance
	// > 1, and no other gate's endpoints moved), so the executable scan
	// would find nothing — exactly as if it had run.
	scanSkip := false

	for executed < n {
		// Cancellation point: abandon the pass mid-route. The caller
		// (Route) discards the truncated output by checking
		// ctx.Err() before assembling a Result.
		if e.check.Tick() {
			break
		}
		if scanSkip {
			scanSkip = false
		} else {
			// Execute every front gate whose qubits are adjacent.
			progressed := false
			for i := 0; i < len(front); {
				v := front[i]
				gt := dag.Gate(v)
				if g.HasEdge(mapping[gt.Q0], mapping[gt.Q1]) {
					if record {
						// Pre-validated DAG gate: append directly.
						e.out.Gates = append(e.out.Gates, gt)
					}
					executed++
					progressed = true
					front[i] = front[len(front)-1]
					front = front[:len(front)-1]
					for _, s := range dag.Succs[v] {
						indeg[s]--
						if indeg[s] == 0 {
							front = append(front, s)
						}
					}
				} else {
					i++
				}
			}
			if progressed {
				resetDecay()
				sinceProgress = 0
				e.frontDirty = true
				continue
			}
			if executed >= n {
				break
			}
		}

		// Release valve: too long without executing anything — route the
		// first front gate forcibly along a shortest path.
		if sinceProgress >= releaseThreshold {
			e.forceRoute(dag, front[0], lay, record)
			sinceProgress = 0
			continue
		}

		// One swap decision. The decision epoch drives the candidate
		// dedup; the front-keyed structure is rebuilt only when the front
		// layer changed since the last decision. Front gates are pairwise
		// qubit-disjoint (two gates sharing a qubit are ordered by that
		// qubit's dependency chain), so each qubit belongs to at most one
		// front gate and a candidate swap (qa,qb) changes at most the two
		// gates indexed at qa and qb — cost terms are integer deltas, not
		// re-sums.
		e.epoch++
		e.cntDecisions++
		ep := e.epoch
		uniformLook := e.opts.LookaheadDecay <= 0
		if e.frontDirty {
			e.frontDirty = false
			e.frontEp++
			fep := e.frontEp
			e.collectExtendedSet(dag, front)
			e.fgN = 0
			for _, v := range front {
				gt := dag.Gate(v)
				fi := int32(e.fgN)
				e.fgQ0[fi], e.fgQ1[fi] = int32(gt.Q0), int32(gt.Q1)
				e.frontGi[gt.Q0], e.frontGi[gt.Q1] = fi, fi
				e.frontOther[gt.Q0], e.frontOther[gt.Q1] = int32(gt.Q1), int32(gt.Q0)
				e.frontStmp[gt.Q0], e.frontStmp[gt.Q1] = fep, fep
				e.fgN++
			}
			e.extN = 0
			nodeCnt := int32(0)
			for i, v := range e.extended {
				gt := dag.Gate(v)
				e.extQ0[i], e.extQ1[i] = int32(gt.Q0), int32(gt.Q1)
				for k := 0; k < 2; k++ {
					q, o := gt.Q0, gt.Q1
					if k == 1 {
						q, o = gt.Q1, gt.Q0
					}
					if e.extStamp[q] != fep {
						e.extHead[q] = -1
						e.extStamp[q] = fep
					}
					e.extIdx[nodeCnt] = int32(i)
					e.extOther[nodeCnt] = int32(o)
					e.extNext[nodeCnt] = e.extHead[q]
					e.extHead[q] = nodeCnt
					nodeCnt++
				}
				e.extN++
			}

			// Fresh distance snapshot for the new front; accepted swaps
			// below keep it current incrementally.
			baseFront = 0
			for fi := 0; fi < e.fgN; fi++ {
				d := int32(dist.At(mapping[e.fgQ0[fi]], mapping[e.fgQ1[fi]]))
				e.fgD[fi] = d
				baseFront += int(d)
			}
			extBase = 0
			if uniformLook {
				for i := 0; i < e.extN; i++ {
					d := int32(dist.At(mapping[e.extQ0[i]], mapping[e.extQ1[i]]))
					e.extOld[i] = d
					extBase += int(d)
				}
			}
		}
		fep := e.frontEp
		extN := e.extN

		// Candidate swaps: edges touching any front-gate qubit. The
		// register is padded to the device size, so every neighbor is
		// occupied (possibly by an ancilla). Dedup is an epoch stamp on
		// the program-qubit pair, preserving first-seen order.
		cands := e.cands[:0]
		for fi := 0; fi < e.fgN; fi++ {
			for k := 0; k < 2; k++ {
				q := int(e.fgQ0[fi])
				if k == 1 {
					q = int(e.fgQ1[fi])
				}
				p := mapping[q]
				nbrs := g.Neighbors(p)
				eids := e.nbrEdge[p]
				for j, pn := range nbrs {
					qn := lay.inv[pn]
					if qn == -1 {
						continue
					}
					// Dedup on the coupler id: under the padded layout the
					// program pair (a,b) and the physical edge {p,pn} are in
					// bijection, so stamping the edge makes exactly the
					// decisions the (a,b) pair table made, in the same
					// first-seen order — with a stamp table that fits in L1.
					if e.candSeen[eids[j]] != ep {
						e.candSeen[eids[j]] = ep
						a, b := q, qn
						if a > b {
							a, b = b, a
						}
						cands = append(cands, [2]int32{int32(a), int32(b)})
					}
				}
			}
		}
		e.cands = cands
		e.cntCandidates += int64(len(cands))

		bestIdx := -1
		var bestTotal float64
		var costs []SwapCost
		for ci := range cands {
			qa, qb := int(cands[ci][0]), int(cands[ci][1])
			pa, pb := mapping[qa], mapping[qb]
			rowA, rowB := dist.Row(pa), dist.Row(pb)
			// The candidate is evaluated positionally — qa sits at pb, qb
			// at pa, everyone else stays put — so the layout is never
			// mutated mid-scan. The distances are exactly those the
			// swapped layout would produce.
			//
			// Front-layer term as a delta over the (at most two) front
			// gates whose qubits moved. A front gate on exactly (qa,qb)
			// keeps its distance, so both branches contribute zero and
			// double-counting is harmless.
			deltaF := 0
			if e.frontStmp[qa] == fep {
				o := int(e.frontOther[qa])
				po := mapping[o]
				if o == qb {
					po = pa
				}
				deltaF += int(rowB[po]) - int(e.fgD[e.frontGi[qa]])
			}
			if e.frontStmp[qb] == fep {
				o := int(e.frontOther[qb])
				po := mapping[o]
				if o == qa {
					po = pb
				}
				deltaF += int(rowA[po]) - int(e.fgD[e.frontGi[qb]])
			}
			basic := float64(baseFront+deltaF) / float64(len(front))
			look := 0.0
			if extN > 0 {
				if uniformLook {
					// Delta over the extended gates touching qa or qb: a
					// gate on exactly (qa,qb) appears in both lists with a
					// zero delta, so no dedup is needed.
					deltaE := 0
					if e.extStamp[qa] == fep {
						for node := e.extHead[qa]; node != -1; node = e.extNext[node] {
							o := int(e.extOther[node])
							po := mapping[o]
							if o == qb {
								po = pa
							}
							deltaE += int(rowB[po]) - int(e.extOld[e.extIdx[node]])
						}
					}
					if e.extStamp[qb] == fep {
						for node := e.extHead[qb]; node != -1; node = e.extNext[node] {
							o := int(e.extOther[node])
							po := mapping[o]
							if o == qa {
								po = pb
							}
							deltaE += int(rowA[po]) - int(e.extOld[e.extIdx[node]])
						}
					}
					look = extendedSetWeight * float64(extBase+deltaE) / float64(extN)
				} else {
					wSum := 0.0
					w := 1.0
					for i := 0; i < extN; i++ {
						p0, p1 := mapping[e.extQ0[i]], mapping[e.extQ1[i]]
						switch int(e.extQ0[i]) {
						case qa:
							p0 = pb
						case qb:
							p0 = pa
						}
						switch int(e.extQ1[i]) {
						case qa:
							p1 = pb
						case qb:
							p1 = pa
						}
						look += w * float64(dist.At(p0, p1))
						wSum += w
						w *= e.opts.LookaheadDecay
					}
					look = extendedSetWeight * look / wSum
				}
			}

			dk := decay[qa]
			if decay[qb] > dk {
				dk = decay[qb]
			}
			total := dk * (basic + look)
			if trace != nil {
				costs = append(costs, SwapCost{
					ProgA: qa, ProgB: qb,
					PhysA: mapping[qa], PhysB: mapping[qb],
					Basic: basic, Lookahead: look, Decay: dk, Total: total,
				})
			}
			if bestIdx == -1 || total < bestTotal || (total == bestTotal && rng.Intn(2) == 0) {
				bestIdx, bestTotal = ci, total
			}
		}
		if bestIdx == -1 {
			// No candidates can only happen on a degenerate device; force.
			e.forceRoute(dag, front[0], lay, record)
			continue
		}
		if trace != nil {
			trace(TraceStep{Trial: trial, FrontGates: frontGates(dag, front), Candidates: costs, ChosenIdx: bestIdx})
		}
		qa, qb := int(cands[bestIdx][0]), int(cands[bestIdx][1])
		if record {
			e.out.Gates = append(e.out.Gates, circuit.NewSwap(qa, qb))
			e.swaps++
		}
		lay.swap(qa, qb)
		// Incremental snapshot update: only gates touching qa or qb
		// moved. A gate on both endpoints is updated twice to the same
		// value and the running sums adjust by exact integer differences,
		// so the state matches a full recompute bit for bit. Only a front
		// gate now at distance 1 can make the next executable scan find
		// anything; if neither moved gate is, the scan is skipped.
		scanSkip = true
		for k := 0; k < 2; k++ {
			q := qa
			if k == 1 {
				q = qb
			}
			if e.frontStmp[q] == fep {
				fi := e.frontGi[q]
				d := int32(dist.At(mapping[e.fgQ0[fi]], mapping[e.fgQ1[fi]]))
				baseFront += int(d - e.fgD[fi])
				e.fgD[fi] = d
				if d == 1 {
					scanSkip = false
				}
			}
			if uniformLook && e.extStamp[q] == fep {
				for node := e.extHead[q]; node != -1; node = e.extNext[node] {
					i := e.extIdx[node]
					d := int32(dist.At(mapping[e.extQ0[i]], mapping[e.extQ1[i]]))
					extBase += int(d - e.extOld[i])
					e.extOld[i] = d
				}
			}
		}
		decay[qa] += decayIncrement
		decay[qb] += decayIncrement
		swapPicks++
		sinceProgress++
		if swapPicks%decayResetEvery == 0 {
			resetDecay()
		}
	}
	e.front = front[:0]
	if record {
		e.outCap = max(e.outCap, len(e.out.Gates))
	}
	return mapping
}

// forceRoute emits SWAPs along a shortest path until the gate's qubits
// are adjacent — SABRE's livelock release valve. The register is padded
// to the device size, so every physical qubit on the path is occupied.
func (e *passEngine) forceRoute(dag *circuit.DAG, v int, lay *layout, record bool) {
	g := e.g
	dist := e.dist
	gt := dag.Gate(v)
	for !g.HasEdge(lay.m[gt.Q0], lay.m[gt.Q1]) {
		p0 := lay.m[gt.Q0]
		p1 := lay.m[gt.Q1]
		// Step q0 one hop toward q1.
		next := -1
		for _, pn := range g.Neighbors(p0) {
			if dist.At(pn, p1) < dist.At(p0, p1) {
				next = pn
				break
			}
		}
		if next == -1 {
			panic("sabre: no descent step on a connected device") // unreachable
		}
		qn := lay.inv[next]
		if qn == -1 {
			panic("sabre: unoccupied physical qubit on forced path")
		}
		if record {
			e.out.MustAppend(circuit.NewSwap(gt.Q0, qn))
			e.swaps++
		}
		lay.swap(gt.Q0, qn)
	}
}

// collectExtendedSet gathers up to extendedSetSize gates following the
// front layer in the DAG (successors in BFS order, regardless of other
// unmet dependencies — mirroring Qiskit's extended set). The caller owns
// the decision epoch; the visited stamps, the reused queue, and the
// reused output backing make the collection allocation-free. It runs
// only when the front layer changed — the BFS depends on nothing else.
func (e *passEngine) collectExtendedSet(dag *circuit.DAG, front []int) []int {
	ep := e.epoch
	limit := extendedSetSize
	out := e.extended[:0]
	queue := append(e.extQueue[:0], front...)
	for _, v := range front {
		e.visited[v] = ep
	}
	for head := 0; head < len(queue) && len(out) < limit; head++ {
		v := queue[head]
		for _, s := range dag.Succs[v] {
			if e.visited[s] == ep {
				continue
			}
			e.visited[s] = ep
			out = append(out, s)
			queue = append(queue, s)
			if len(out) >= limit {
				break
			}
		}
	}
	e.extended = out
	e.extQueue = queue[:0]
	return out
}

func frontGates(dag *circuit.DAG, front []int) []circuit.Gate {
	out := make([]circuit.Gate, len(front))
	for i, v := range front {
		out[i] = dag.Gate(v)
	}
	return out
}
