// Package olsq implements exact quantum layout synthesis in the style of
// OLSQ2 (Lin et al., DAC 2023): a SAT encoding that decides whether a
// circuit can be executed on a coupling graph with at most k inserted
// SWAP gates. Iterating or binary-searching over k yields the provably
// minimal SWAP count, which is how the paper's Section IV-A verifies that
// QUBIKOS benchmarks have the optimal counts they claim.
//
// Encoding (coarse "block" formulation). A transpiled circuit with at
// most k SWAPs has the form C'0 T0 C'1 T1 ... C'k where each Ti is one
// optional SWAP. Blocks b = 0..k each carry a full program->physical
// mapping; between consecutive blocks at most one coupling edge is
// swapped. Each two-qubit gate is assigned to a block (order-encoded),
// gate dependencies force non-decreasing blocks, and a gate's two qubits
// must be physically adjacent in its block's mapping.
//
// The bound sweep is incremental in the style of Shaik & van de Pol's
// planning-based layout synthesis: one persistent solver carries a
// single encoding that grows block by block, per-transition activation
// literals and per-bound finalization literals select the bound as
// assumptions to one sat.Solver.Solve call per bound, and clauses learned
// at one bound are reused at every later one. See docs/performance.md
// for the design and measurements.
package olsq

import (
	"context"
	"fmt"
	"io"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/graph"
	"repro/internal/router"
	"repro/internal/sat"
)

// Options tunes the exact solver.
type Options struct {
	// MaxConflicts bounds the SAT search per DecideCtx call; 0 = unlimited.
	MaxConflicts int64
}

// Solver is the exact layout-synthesis engine for one circuit/device pair.
type Solver struct {
	opts Options
	circ *circuit.Circuit
	dev  *arch.Device
	dag  *circuit.DAG
	// inc is the persistent incremental encoding (largest bound seen so
	// far); learned clauses and VSIDS activity carry across DecideCtx calls.
	inc *encoding
}

// New prepares an exact solver. The circuit may contain single-qubit
// gates; they are ignored (they impose no constraints and are re-inserted
// unchanged in the result). Input circuits must not contain SWAPs.
func New(c *circuit.Circuit, dev *arch.Device, opts Options) (*Solver, error) {
	if c.NumQubits > dev.NumQubits() {
		return nil, fmt.Errorf("olsq: circuit needs %d qubits, device has %d", c.NumQubits, dev.NumQubits())
	}
	for _, g := range c.Gates {
		if g.Kind == circuit.Swap {
			return nil, fmt.Errorf("olsq: input circuit already contains SWAP gates")
		}
	}
	return &Solver{opts: opts, circ: c, dev: dev, dag: circuit.NewDAG(c)}, nil
}

// Result augments the shared router.Result with the block schedule found
// by the SAT model.
type Result struct {
	router.Result
	// BlockOfGate maps each two-qubit-gate DAG node to its block.
	BlockOfGate []int
	// SwapEdges lists, per transition 0..k-1, the physical edge swapped
	// (or nil when the transition is unused).
	SwapEdges []*graph.Edge
}

// SolverStats returns the search-effort counters of the underlying
// incremental SAT solver, accumulated across every DecideCtx call on this
// Solver, including those MinSwapsCtx and VerifyOptimalCtx make. Before
// the first solve it returns the zero value.
func (s *Solver) SolverStats() sat.Stats {
	if s.inc == nil || s.inc.solver == nil {
		return sat.Stats{}
	}
	return s.inc.solver.Stats()
}

// ensureEncoded returns the persistent incremental encoding, growing it
// in place when the requested bound exceeds the encoded one. Every block
// is encoded exactly once across the solver's lifetime; DecideCtx selects
// a bound by assuming activation and finalization literals, so learned
// clauses and variable activity survive the whole bound sweep.
func (s *Solver) ensureEncoded(k int) *encoding {
	if s.inc == nil {
		enc := s.newEncoding()
		enc.solver = sat.NewSolver()
		s.inc = enc
	}
	if s.inc.k < k {
		s.growEncoding(s.inc, s.inc.solver, k)
	}
	return s.inc
}

// DecideCtx reports whether the circuit is executable with at most k
// SWAPs; when satisfiable it returns the witness result. A third
// "unknown" state is reported via err when the conflict budget is
// exhausted. The context is propagated into the SAT search alongside the
// conflict budget: once ctx is done the solve stops at its next conflict
// poll and ctx.Err() is returned (wrapped), distinguishable from budget
// exhaustion via errors.Is. The solver's incremental state stays valid,
// so a later call with a fresh context resumes the bound sweep with
// everything learned so far.
func (s *Solver) DecideCtx(ctx context.Context, k int) (bool, *Result, error) {
	if k < 0 {
		return false, nil, fmt.Errorf("olsq: negative swap bound %d", k)
	}
	enc := s.ensureEncoded(k)
	enc.solver.Budget = s.opts.MaxConflicts
	// Transitions below k are enabled, transitions k..enc.k-1 disabled (a
	// disabled transition swaps no edge, so its mapping carries over
	// unchanged), and fin[k] forces every gate into blocks 0..k — under
	// these assumptions the formula is exactly the ≤k decision.
	asm := make([]sat.Lit, 0, enc.k+1)
	asm = append(asm, enc.fin[k])
	for b := 0; b < enc.k; b++ {
		if b < k {
			asm = append(asm, enc.act[b])
		} else {
			asm = append(asm, enc.act[b].Neg())
		}
	}
	switch enc.solver.Solve(ctx, asm...) {
	case sat.Sat:
		res, err := s.extract(enc, k)
		if err != nil {
			return false, nil, err
		}
		return true, res, nil
	case sat.Unsat:
		return false, nil, nil
	default:
		if err := ctx.Err(); err != nil {
			return false, nil, fmt.Errorf("olsq: solve cancelled at k=%d: %w", k, err)
		}
		return false, nil, fmt.Errorf("olsq: conflict budget exhausted at k=%d", k)
	}
}

// MinSwapsCtx finds the minimal SWAP count in [0, maxK] by linear search
// (each infeasible k is a full UNSAT proof, matching how OLSQ2 certifies
// optimality). One persistent encoding grows block by block, so each
// bound reuses everything learned at the bounds below it. It returns an
// error if even maxK is infeasible. The context is propagated into each
// DecideCtx's SAT search.
func (s *Solver) MinSwapsCtx(ctx context.Context, maxK int) (*Result, error) {
	for k := 0; k <= maxK; k++ {
		ok, res, err := s.DecideCtx(ctx, k)
		if err != nil {
			return nil, err
		}
		if ok {
			return res, nil
		}
	}
	return nil, fmt.Errorf("olsq: no solution with at most %d swaps", maxK)
}

// VerifyOptimalCtx certifies that the circuit's optimal SWAP count is
// exactly n: satisfiable at n and (for n > 0) unsatisfiable at n-1.
// Because the encoding permits unused transitions, "≤ n-1 UNSAT" covers
// every count below n. Both checks run on the same persistent solver:
// the n-1 UNSAT proof's learned clauses are reused by the satisfiable
// check at n. Both decisions run their SAT searches with the context's
// deadline alongside any conflict budget.
func (s *Solver) VerifyOptimalCtx(ctx context.Context, n int) error {
	if n > 0 {
		ok, _, err := s.DecideCtx(ctx, n-1)
		if err != nil {
			return err
		}
		if ok {
			return fmt.Errorf("olsq: circuit solvable with %d swaps, claimed optimum %d", n-1, n)
		}
	}
	ok, _, err := s.DecideCtx(ctx, n)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("olsq: circuit not solvable with claimed optimum %d swaps", n)
	}
	return nil
}

// encoding holds the SAT variables of the block formula: the solver's
// persistent incremental encoding, or one DIMACS export's.
type encoding struct {
	solver *sat.Solver // nil when encoding into a DIMACS Recorder
	k      int
	// x[b][q][p]: program qubit q is at physical p in block b.
	x [][][]sat.Lit
	// u[g][b]: gate g is scheduled at block <= b (order encoding).
	u [][]sat.Lit
	// t[g][b]: gate g is scheduled exactly at block b.
	t [][]sat.Lit
	// sw[b][e]: transition b swaps coupling edge e (index into edge list).
	sw [][]sat.Lit
	// moved[b][p]: some swapped edge at transition b touches physical p.
	moved [][]sat.Lit
	// act[b]: transition b is enabled. ¬act[b] forces every sw[b][e]
	// false, freezing the mapping across the transition. DecideCtx assumes
	// act[0..k-1] and ¬act[k..] to select a bound without re-encoding;
	// DIMACS export asserts them all as unit clauses.
	act []sat.Lit
	// fin[b]: every gate is scheduled by block b. DecideCtx(ctx, k) assumes
	// fin[k] instead of the formula carrying an unconditional final-block
	// unit clause, so the encoding can grow to larger bounds while every
	// clause learned at smaller bounds stays sound.
	fin   []sat.Lit
	edges []graph.Edge
}

func (s *Solver) newEncoding() *encoding {
	nG := s.dag.N()
	return &encoding{
		k:     -1,
		u:     make([][]sat.Lit, nG),
		t:     make([][]sat.Lit, nG),
		edges: s.dev.Graph().Edges(),
	}
}

// pairwiseMappingMaxQubits is the largest device whose per-block mapping
// constraints are encoded pairwise. Pairwise clauses grow as nQ·nP² per
// block against the counter's linear size. At paper scale (3000 gates,
// n = 20, encoded to k = 19) the counter encoding of an Eagle-127
// instance holds 0.79 GB of heap and a pairwise one about 2.5 GB; on
// Sycamore-54 (1500 gates) pairwise grows it only from 155 to 274 MB.
const pairwiseMappingMaxQubits = 64

// growEncoding appends blocks enc.k+1 .. k (and the transitions between
// them) to the formula. Growth is strictly additive — no existing clause
// is retracted, and per-bound constraints (which transitions may swap,
// which block all gates must have finished by) live behind the act/fin
// assumption literals — so clauses a persistent solver learned at smaller
// bounds remain sound after the encoding grows.
func (s *Solver) growEncoding(enc *encoding, sv sat.ClauseAdder, k int) {
	nQ := s.circ.NumQubits
	nP := s.dev.NumQubits()
	nG := s.dag.N()
	g := s.dev.Graph()

	newLit := func() sat.Lit { return sat.Lit(sv.NewVar()) }
	check := func(err error) {
		if err != nil {
			panic(err) // unreachable: all literals come from NewVar
		}
	}
	// The clauses built here share one buffer: a slice passed to
	// AddClause through the ClauseAdder interface escapes to the heap,
	// and both sinks copy their input.
	cl := make([]sat.Lit, 0, g.MaxDegree()+2)
	add := func(lits ...sat.Lit) {
		cl = append(cl[:0], lits...)
		check(sv.AddClause(cl...))
	}
	col := make([]sat.Lit, 0, nQ) // one mapping column at a time

	// Each block's mapping is an injection: every program qubit sits on
	// at least one physical qubit, and every row and column holds at most
	// one true literal. Up to pairwiseMappingMaxQubits the at-most-ones
	// are direct pairwise exclusions, which the solver propagates without
	// branching or learning on auxiliary variables; above it they are
	// sequential counters, whose clauses grow linearly.
	amo := sat.AddAtMostOne
	if nP <= pairwiseMappingMaxQubits {
		amo = sat.AddAtMostOnePairwise
	}

	for b := enc.k + 1; b <= k; b++ {
		// Mapping variables and bijectivity for block b.
		xb := make([][]sat.Lit, nQ)
		for q := 0; q < nQ; q++ {
			xb[q] = make([]sat.Lit, nP)
			for p := 0; p < nP; p++ {
				xb[q][p] = newLit()
			}
			check(sv.AddClause(xb[q]...))
			check(amo(sv, xb[q]))
		}
		for p := 0; p < nP; p++ {
			col = col[:0]
			for q := 0; q < nQ; q++ {
				col = append(col, xb[q][p])
			}
			check(amo(sv, col))
		}
		enc.x = append(enc.x, xb)

		// Gate scheduling: one order-encoding column per block.
		for gi := 0; gi < nG; gi++ {
			enc.u[gi] = append(enc.u[gi], newLit())
			enc.t[gi] = append(enc.t[gi], newLit())
		}
		for gi := 0; gi < nG; gi++ {
			if b == 0 {
				// t[0] <-> u[0].
				check(sat.AddIff(sv, enc.t[gi][0], enc.u[gi][0]))
			} else {
				// Monotone: u[b-1] -> u[b]; t[b] <-> u[b] & !u[b-1].
				check(sat.AddImplies(sv, enc.u[gi][b-1], enc.u[gi][b]))
				check(sat.AddIffAnd(sv, enc.t[gi][b], enc.u[gi][b], enc.u[gi][b-1].Neg()))
			}
			// Dependencies: an immediate predecessor must be scheduled no
			// later: u[g][b] -> u[pred][b]; transitivity extends this to
			// all ancestors.
			for _, pr := range s.dag.Preds[gi] {
				check(sat.AddImplies(sv, enc.u[gi][b], enc.u[pr][b]))
			}
		}

		// Executability: if gate gi runs in block b and its first qubit is
		// at p, its second qubit must be at a neighbor of p.
		for gi := 0; gi < nG; gi++ {
			gt := s.dag.Gate(gi)
			q0, q1 := gt.Q0, gt.Q1
			for p := 0; p < nP; p++ {
				cl = append(cl[:0], enc.t[gi][b].Neg(), xb[q0][p].Neg())
				for _, pn := range g.Neighbors(p) {
					cl = append(cl, xb[q1][pn])
				}
				check(sv.AddClause(cl...))
			}
		}

		// Transition b-1 between blocks b-1 and b: at most one swapped
		// edge; the mapping evolves by that transposition, and unmoved
		// physical qubits keep their occupants.
		if b > 0 {
			tr := b - 1
			xa := enc.x[tr]
			swb := make([]sat.Lit, len(enc.edges))
			for e := range enc.edges {
				swb[e] = newLit()
			}
			enc.sw = append(enc.sw, swb)
			check(sat.AddAtMostOne(sv, swb))

			// Activation: a disabled transition swaps nothing.
			actb := newLit()
			enc.act = append(enc.act, actb)
			for e := range enc.edges {
				check(sat.AddImplies(sv, swb[e], actb))
			}

			movedb := make([]sat.Lit, nP)
			for p := 0; p < nP; p++ {
				var touching []sat.Lit
				for e, ed := range enc.edges {
					if ed.U == p || ed.V == p {
						touching = append(touching, swb[e])
					}
				}
				movedb[p] = newLit()
				check(sat.AddIffOr(sv, movedb[p], touching))
			}
			enc.moved = append(enc.moved, movedb)

			for e, ed := range enc.edges {
				for q := 0; q < nQ; q++ {
					// sw -> (x[b][q][U] <-> x[b-1][q][V]) and symmetrically.
					add(swb[e].Neg(), xa[q][ed.V].Neg(), xb[q][ed.U])
					add(swb[e].Neg(), xa[q][ed.V], xb[q][ed.U].Neg())
					add(swb[e].Neg(), xa[q][ed.U].Neg(), xb[q][ed.V])
					add(swb[e].Neg(), xa[q][ed.U], xb[q][ed.V].Neg())
				}
			}
			for p := 0; p < nP; p++ {
				for q := 0; q < nQ; q++ {
					add(movedb[p], xa[q][p].Neg(), xb[q][p])
					add(movedb[p], xa[q][p], xb[q][p].Neg())
				}
			}
		}

		// Finalization: fin[b] forces every gate to finish by block b.
		finb := newLit()
		enc.fin = append(enc.fin, finb)
		for gi := 0; gi < nG; gi++ {
			check(sat.AddImplies(sv, finb, enc.u[gi][b]))
		}
	}
	enc.k = k
}

// ExportDIMACS writes the ≤k-SWAP decision formula in DIMACS CNF format,
// for archiving or cross-checking with external SAT solvers. The emitted
// formula is exactly what the incremental encoder builds at bound k, with
// every activation assumption asserted as a unit clause, so an external
// solver reproduces DecideCtx(ctx, k)'s verdict.
func (s *Solver) ExportDIMACS(w io.Writer, k int) error {
	if k < 0 {
		return fmt.Errorf("olsq: negative swap bound %d", k)
	}
	rec := sat.NewRecorder()
	enc := s.newEncoding()
	s.growEncoding(enc, rec, k)
	for _, a := range enc.act {
		if err := rec.AddClause(a); err != nil {
			return err
		}
	}
	if err := rec.AddClause(enc.fin[k]); err != nil {
		return err
	}
	return sat.WriteDIMACS(w, &rec.Formula)
}

// extract reads the SAT model into a Result with a transpiled circuit.
// The encoding may be built at a larger bound than the decided k, but
// the assumed fin[k] forces u[g][k] true for every
// gate, so no gate is scheduled past block k and transitions at and
// beyond k are disabled — only blocks 0..k need reading.
func (s *Solver) extract(enc *encoding, k int) (*Result, error) {
	sv := enc.solver
	nQ := s.circ.NumQubits
	nP := s.dev.NumQubits()

	mappingAt := func(b int) (router.Mapping, error) {
		m := make(router.Mapping, nQ)
		for q := 0; q < nQ; q++ {
			m[q] = -1
			for p := 0; p < nP; p++ {
				if sv.Value(enc.x[b][q][p].Var()) {
					if m[q] != -1 {
						return nil, fmt.Errorf("olsq: model places q%d twice in block %d", q, b)
					}
					m[q] = p
				}
			}
			if m[q] == -1 {
				return nil, fmt.Errorf("olsq: model leaves q%d unplaced in block %d", q, b)
			}
		}
		return m, nil
	}

	init, err := mappingAt(0)
	if err != nil {
		return nil, err
	}
	// A SWAP may move a program qubit onto an empty physical qubit, so
	// the empty ones are filled with ancillas, which only SWAPs touch.
	init = router.PadMapping(init, nP)

	// Block of each DAG node.
	block := make([]int, s.dag.N())
	for gi := range block {
		block[gi] = -1
		for b := 0; b <= k; b++ {
			if sv.Value(enc.t[gi][b].Var()) {
				block[gi] = b
				break
			}
		}
		if block[gi] == -1 {
			return nil, fmt.Errorf("olsq: model leaves gate %d unscheduled", gi)
		}
	}

	// Swap edge per transition.
	swapEdges := make([]*graph.Edge, k)
	for b := 0; b < k; b++ {
		for e := range enc.edges {
			if sv.Value(enc.sw[b][e].Var()) {
				ed := enc.edges[e]
				swapEdges[b] = &ed
				break
			}
		}
	}

	// Assemble the two-qubit skeleton block by block with SWAPs between
	// blocks; within a block, gates keep original circuit order, so the
	// skeleton is a dependency-valid reordering. Single-qubit gates are
	// woven back afterwards.
	skeleton := circuit.New(nP)
	cur := init.Clone()
	swaps := 0
	for b := 0; b <= k; b++ {
		for idx := range s.circ.Gates {
			node := s.dag.NodeOf[idx]
			if node == -1 || block[node] != b {
				continue
			}
			skeleton.MustAppend(s.circ.Gates[idx])
		}
		if b < k && swapEdges[b] != nil {
			inv := cur.Inverse(nP)
			qa, qb := inv[swapEdges[b].U], inv[swapEdges[b].V]
			skeleton.MustAppend(circuit.NewSwap(qa, qb))
			cur.SwapProgram(qa, qb)
			swaps++
		}
	}
	trans, err := router.WeaveSingleQubitGates(router.PadToDevice(s.circ, s.dev), skeleton)
	if err != nil {
		return nil, fmt.Errorf("olsq: %w", err)
	}

	res := &Result{
		Result: router.Result{
			Tool:           "olsq-exact",
			InitialMapping: init,
			Transpiled:     trans,
			SwapCount:      swaps,
			Trials:         1,
		},
		BlockOfGate: block,
		SwapEdges:   swapEdges,
	}
	if err := router.Validate(s.circ, s.dev, &res.Result); err != nil {
		return nil, fmt.Errorf("olsq: internal error, extracted result invalid: %w", err)
	}
	return res, nil
}
