// Package sat implements a CDCL (conflict-driven clause learning) SAT
// solver from scratch, sufficient to power the OLSQ2-style exact layout
// synthesis used to verify QUBIKOS optimality. Features:
// two-watched-literal propagation, first-UIP clause learning with
// one-level minimization (a learned literal is dropped when every other
// literal of its reason is already in the clause or fixed at level 0),
// VSIDS-style activity ordering, phase saving, Luby restarts, and
// LBD-based learned-clause database reduction.
//
// The public interface speaks 1-based signed literals (+v / -v);
// internally the solver is laid out MiniSat-style for speed:
//   - Literals are packed as 2v / 2v+1, and a value table indexed by
//     packed literal gives a literal's value in one load.
//   - All clause literals live in a single flat arena addressed by
//     uint32 clause references (see arena.go). A learned clause keeps
//     its LBD and activity just before its header, so every clause's
//     literals start right after its header.
//   - The watch table is a flat slice indexed by packed literal. Each
//     list is kept at full capacity with its used length stored apart,
//     and new variables carve their lists from a shared slab.
//   - Binary clauses are implicit in the watch table: their watchers
//     are marked, and each one's blocker is the clause's other literal,
//     so propagation settles them without reading the arena.
//
// The search loop performs no map lookups and — once slice capacities
// are warm — no heap allocations, which is what makes repeated
// assumption-based solving (Solve under assumptions across many swap
// bounds) cheap.
package sat

import (
	"context"
	"fmt"
	"slices"
)

// Lit is a literal: +v for variable v, -v for its negation. Variable 0 is
// invalid.
type Lit int

// Var returns the literal's variable (always positive).
func (l Lit) Var() int {
	if l < 0 {
		return int(-l)
	}
	return int(l)
}

// Neg returns the complementary literal.
func (l Lit) Neg() Lit { return -l }

// Sign reports whether the literal is positive.
func (l Lit) Sign() bool { return l > 0 }

// Status is the result of a solve call.
type Status int

const (
	// Unknown means the solver stopped before reaching a verdict (budget).
	Unknown Status = iota
	// Sat means a satisfying assignment was found.
	Sat
	// Unsat means the formula is unsatisfiable (under any assumptions given).
	Unsat
)

func (s Status) String() string {
	switch s {
	case Sat:
		return "SAT"
	case Unsat:
		return "UNSAT"
	}
	return "UNKNOWN"
}

type lbool int8

const (
	lUndef lbool = iota
	lTrue
	lFalse
)

// watcher pairs a clause reference with its blocker literal (a literal
// that, when true, lets propagation skip visiting the clause). A binary
// clause's watchers carry crefBinary in c, and their blocker is the
// clause's other literal.
type watcher struct {
	c       cref
	blocker plit
}

// New variables carve their two watch lists, watchInitCap watchers
// each, from a shared slab of watchSlabLen, so most lists never
// allocate on their own.
const (
	watchInitCap = 8
	watchSlabLen = 1024
)

// Solver is a CDCL SAT solver. Create with NewSolver, add clauses with
// AddClause, then call Solve. A solver whose formula was proven
// unsatisfiable stays unsatisfiable; more clauses may still be added
// (they are absorbed trivially).
type Solver struct {
	nVars   int
	ca      clauseArena
	clauses []cref
	learnts []cref
	// watches[x] lists the clauses visited when literal x becomes true
	// (they watch ¬x). Each list is kept at full capacity; wlen[x] is
	// its used length, so propagation rewrites a slice header only when
	// a list has to grow.
	watches [][]watcher // indexed by packed literal
	wlen    []int32     // indexed by packed literal
	wslab   []watcher   // unused tail of the slab new lists are carved from

	vals    []lbool // packed literal -> value
	level   []int32 // var -> decision level
	reasonC []cref  // var -> implying clause, crefUndef when none
	trail   []plit
	trailLi []int // decision-level boundaries in trail
	phase   []bool

	activity []float64
	varInc   float64
	order    varHeap

	propHead int
	unsat    bool // formula known UNSAT without assumptions

	claInc       float64
	maxLearnts   float64
	conflicts    int64
	decisions    int64
	propagations int64
	restarts     int64
	learned      int64

	// Budget caps the number of conflicts per Solve call; 0 = unlimited.
	Budget int64

	// Reusable scratch: none of these allocate once capacities are warm.
	seen      []bool
	analyzeTs []plit
	learntBuf []plit
	addBuf    []Lit
	packBuf   []plit
	assumeBuf []plit
	lbdStamp  []uint32 // level -> epoch mark for allocation-free LBD
	lbdEpoch  uint32
}

// NewSolver returns a solver with no variables or clauses.
func NewSolver() *Solver {
	s := &Solver{
		varInc:     1.0,
		claInc:     1.0,
		maxLearnts: 4000,
	}
	s.order.s = s
	// Index 0 is unused for variables; packed literals 0 and 1 likewise.
	s.vals = append(s.vals, lUndef, lUndef)
	s.level = append(s.level, 0)
	s.reasonC = append(s.reasonC, crefUndef)
	s.phase = append(s.phase, false)
	s.activity = append(s.activity, 0)
	s.seen = append(s.seen, false)
	s.lbdStamp = append(s.lbdStamp, 0)
	s.order.pos = append(s.order.pos, -1)
	s.watches = append(s.watches, nil, nil)
	s.wlen = append(s.wlen, 0, 0)
	return s
}

// NewVar allocates a fresh variable and returns its index (1-based).
func (s *Solver) NewVar() int {
	s.nVars++
	s.vals = append(s.vals, lUndef, lUndef)
	s.level = append(s.level, 0)
	s.reasonC = append(s.reasonC, crefUndef)
	s.phase = append(s.phase, false)
	s.activity = append(s.activity, 0)
	s.seen = append(s.seen, false)
	s.lbdStamp = append(s.lbdStamp, 0)
	s.order.pos = append(s.order.pos, -1)
	if len(s.wslab) < 2*watchInitCap {
		s.wslab = make([]watcher, watchSlabLen)
	}
	s.watches = append(s.watches,
		s.wslab[:watchInitCap:watchInitCap],
		s.wslab[watchInitCap:2*watchInitCap:2*watchInitCap])
	s.wslab = s.wslab[2*watchInitCap:]
	s.wlen = append(s.wlen, 0, 0)
	s.order.pushIfAbsent(s.nVars)
	return s.nVars
}

// Stats is a snapshot of the solver's search-effort counters, accumulated
// across every Solve call on the receiver.
type Stats struct {
	Conflicts    int64
	Decisions    int64
	Propagations int64
	Restarts     int64 // Luby restarts taken
	Learned      int64 // learnt clauses added (unit learnts included)
}

// Stats returns the counters accumulated so far.
func (s *Solver) Stats() Stats {
	return Stats{
		Conflicts:    s.conflicts,
		Decisions:    s.decisions,
		Propagations: s.propagations,
		Restarts:     s.restarts,
		Learned:      s.learned,
	}
}

// AddClause adds a disjunction of literals. Tautologies are dropped;
// duplicate literals are merged. Adding the empty clause (or a clause
// falsified at level 0) makes the formula permanently UNSAT; that is not
// an error — Solve simply reports Unsat. Errors are reserved for invalid
// input (literals over unallocated variables).
func (s *Solver) AddClause(lits ...Lit) error {
	// Every literal is checked before anything can return early, so an
	// absorbed or tautological clause cannot hide an invalid one.
	for _, l := range lits {
		if v := l.Var(); v < 1 || v > s.nVars {
			return fmt.Errorf("sat: literal %d references unallocated variable", l)
		}
	}
	if s.unsat {
		return nil // already unsat; absorbing
	}
	// Clauses are added at the root level; drop any leftover model state
	// from a previous Solve call.
	s.backtrackTo(0)
	// Normalize: sort, dedupe, detect tautology, drop level-0 false lits.
	ls := append(s.addBuf[:0], lits...)
	s.addBuf = ls
	slices.Sort(ls)
	out := ls[:0]
	var prev Lit
	for _, l := range ls {
		v := l.Var()
		if l == prev {
			continue
		}
		if l == -prev && prev != 0 {
			return nil // tautology: contains v and -v
		}
		switch s.vals[packLit(l)] {
		case lTrue:
			if s.level[v] == 0 {
				return nil // satisfied forever
			}
		case lFalse:
			if s.level[v] == 0 {
				prev = l
				continue // falsified forever; drop literal
			}
		}
		out = append(out, l)
		prev = l
	}
	// Note: callers add clauses only at level 0 (before solving), so the
	// level checks above are exact.
	switch len(out) {
	case 0:
		s.unsat = true
		return nil
	case 1:
		if !s.enqueue(packLit(out[0]), crefUndef) {
			s.unsat = true
			return nil
		}
		if s.propagate() != crefUndef {
			s.unsat = true
		}
		return nil
	}
	pk := s.packBuf[:0]
	for _, l := range out {
		pk = append(pk, packLit(l))
	}
	s.packBuf = pk
	c := s.ca.alloc(pk, false)
	s.clauses = append(s.clauses, c)
	s.attach(c)
	return nil
}

// attach registers the clause's first two literals in the watch table,
// marking a binary clause's watchers.
func (s *Solver) attach(c cref) {
	ls := s.ca.lits(c)
	l0, l1 := plit(ls[0]), plit(ls[1])
	wc := c
	if len(ls) == 2 {
		wc |= crefBinary
	}
	s.pushWatch(l0.neg(), watcher{wc, l1})
	s.pushWatch(l1.neg(), watcher{wc, l0})
}

// pushWatch appends w to watch list x, doubling the list when it is
// full. Every variable's lists start at watchInitCap.
func (s *Solver) pushWatch(x plit, w watcher) {
	ws, n := s.watches[x], s.wlen[x]
	if int(n) == len(ws) {
		grown := make([]watcher, 2*len(ws))
		copy(grown, ws)
		ws = grown
		s.watches[x] = ws
	}
	ws[n] = w
	s.wlen[x] = n + 1
}

// Value returns the model value of variable v after a Sat result.
func (s *Solver) Value(v int) bool { return s.vals[2*v] == lTrue }

func (s *Solver) decisionLevel() int { return len(s.trailLi) }

func (s *Solver) enqueue(p plit, from cref) bool {
	switch s.vals[p] {
	case lTrue:
		return true
	case lFalse:
		return false
	}
	s.assign(p, from)
	return true
}

// assign makes the unassigned literal p true, implied by from.
func (s *Solver) assign(p plit, from cref) {
	v := p.varIdx()
	s.vals[p] = lTrue
	s.vals[p^1] = lFalse
	s.level[v] = int32(len(s.trailLi))
	s.reasonC[v] = from
	s.phase[v] = p.pos()
	s.trail = append(s.trail, p)
}

// propagate runs unit propagation; returns the conflicting clause or
// crefUndef. The inner loop touches only flat slices: no maps, no
// per-clause pointers, no allocations beyond amortized watch-list growth.
// Each watch list is compacted in place as it is walked.
func (s *Solver) propagate() cref {
	vals := s.vals
	for s.propHead < len(s.trail) {
		p := s.trail[s.propHead]
		s.propHead++
		s.propagations++
		np := p.neg() // the literal that just became false
		ws := s.watches[p][:s.wlen[p]]
		j := 0
		for i := 0; i < len(ws); i++ {
			w := ws[i]
			bv := vals[w.blocker]
			if bv == lTrue {
				ws[j] = w
				j++
				continue
			}
			if w.c&crefBinary != 0 {
				// A binary clause is unit or conflicting once its blocker,
				// the other literal, is not true; the arena is not read.
				ws[j] = w
				j++
				c := w.c &^ crefBinary
				if bv == lFalse {
					// Leave the literals in the order the general path
					// below would, [other, falsified]: analyze walks a
					// conflict clause in arena order.
					s.ca.data[c+1], s.ca.data[c+2] = uint32(w.blocker), uint32(np)
					j += copy(ws[j:], ws[i+1:])
					s.wlen[p] = int32(j)
					s.propHead = len(s.trail)
					return c
				}
				s.assign(w.blocker, c)
				continue
			}
			c := w.c
			ls := s.ca.lits(c)
			// Ensure ls[0] is the other watched literal.
			if plit(ls[0]) == np {
				ls[0], ls[1] = ls[1], ls[0]
			}
			first := plit(ls[0])
			if first != w.blocker && vals[first] == lTrue {
				ws[j] = watcher{c, first}
				j++
				continue
			}
			// Find a new literal to watch.
			found := false
			for k := 2; k < len(ls); k++ {
				if vals[ls[k]] != lFalse {
					ls[1], ls[k] = ls[k], ls[1]
					s.pushWatch(plit(ls[1]).neg(), watcher{c, first})
					found = true
					break
				}
			}
			if found {
				continue
			}
			// Clause is unit or conflicting; first is not true.
			ws[j] = watcher{c, first}
			j++
			if vals[first] == lFalse {
				// Conflict: keep the remaining watchers and bail.
				j += copy(ws[j:], ws[i+1:])
				s.wlen[p] = int32(j)
				s.propHead = len(s.trail)
				return c
			}
			s.assign(first, c)
		}
		s.wlen[p] = int32(j)
	}
	return crefUndef
}

// analyze performs first-UIP conflict analysis, returning the learned
// clause (with the asserting literal first) and the backtrack level. The
// returned slice aliases an internal buffer valid until the next call.
func (s *Solver) analyze(confl cref) ([]plit, int) {
	learnt := append(s.learntBuf[:0], 0) // placeholder for asserting literal
	counter := 0
	var p plit
	idx := len(s.trail) - 1
	s.analyzeTs = s.analyzeTs[:0]

	c := confl
	// implied is the variable a reason clause implied, skipped in its
	// walk; the conflict clause has none. A longer reason holds its
	// implied literal at position 0, since propagation never moves a
	// true ls[0]; a binary one may hold it at either position.
	implied := 0
	for {
		if s.ca.learned(c) {
			s.bumpClause(c)
		}
		for _, qw := range s.ca.lits(c) {
			q := plit(qw)
			v := q.varIdx()
			if v == implied || s.seen[v] || s.level[v] == 0 {
				continue
			}
			s.seen[v] = true
			s.analyzeTs = append(s.analyzeTs, q)
			s.bumpVar(v)
			if int(s.level[v]) == s.decisionLevel() {
				counter++
			} else {
				learnt = append(learnt, q)
			}
		}
		// Find the next literal on the trail that is marked seen.
		for !s.seen[s.trail[idx].varIdx()] {
			idx--
		}
		p = s.trail[idx]
		idx--
		implied = p.varIdx()
		s.seen[implied] = false
		counter--
		if counter == 0 {
			break
		}
		c = s.reasonC[implied]
	}
	learnt[0] = p.neg()

	// Clause minimization: drop literals implied by the rest.
	minimized := learnt[:1]
	for _, q := range learnt[1:] {
		if !s.redundant(q) {
			minimized = append(minimized, q)
		}
	}
	learnt = minimized
	s.learntBuf = learnt

	// Compute backtrack level = second-highest level in the clause.
	btLevel := 0
	if len(learnt) > 1 {
		maxI := 1
		for i := 2; i < len(learnt); i++ {
			if s.level[learnt[i].varIdx()] > s.level[learnt[maxI].varIdx()] {
				maxI = i
			}
		}
		learnt[1], learnt[maxI] = learnt[maxI], learnt[1]
		btLevel = int(s.level[learnt[1].varIdx()])
	}
	// Clear seen flags.
	for _, q := range s.analyzeTs {
		s.seen[q.varIdx()] = false
	}
	return learnt, btLevel
}

// redundant reports whether literal q in a learned clause is implied by
// the others (simple non-recursive check: q's reason exists and all its
// literals are already seen or at level 0).
func (s *Solver) redundant(q plit) bool {
	v := q.varIdx()
	r := s.reasonC[v]
	if r == crefUndef {
		return false
	}
	for _, lw := range s.ca.lits(r) {
		lv := plit(lw).varIdx()
		if lv == v {
			continue
		}
		if !s.seen[lv] && s.level[lv] != 0 {
			return false
		}
	}
	return true
}

func (s *Solver) backtrackTo(level int) {
	if s.decisionLevel() <= level {
		return
	}
	bound := s.trailLi[level]
	for i := len(s.trail) - 1; i >= bound; i-- {
		p := s.trail[i]
		v := p.varIdx()
		s.vals[p] = lUndef
		s.vals[p^1] = lUndef
		s.reasonC[v] = crefUndef
		s.order.pushIfAbsent(v)
	}
	s.trail = s.trail[:bound]
	s.trailLi = s.trailLi[:level]
	s.propHead = len(s.trail)
}

func (s *Solver) bumpVar(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := 1; i <= s.nVars; i++ {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	// A bump only raises v's activity, so v can only move up.
	if i := s.order.pos[v]; i >= 0 {
		s.order.up(int(i))
	}
}

func (s *Solver) decayVar() { s.varInc /= 0.95 }

func (s *Solver) bumpClause(c cref) {
	na := s.ca.act(c) + float32(s.claInc)
	s.ca.setAct(c, na)
	if na > 1e20 {
		for _, l := range s.learnts {
			s.ca.setAct(l, s.ca.act(l)*1e-20)
		}
		s.claInc *= 1e-20
	}
}

// computeLBD counts distinct decision levels via an epoch-stamped level
// mark (no map, no allocation).
func (s *Solver) computeLBD(lits []plit) int {
	s.lbdEpoch++
	n := 0
	for _, l := range lits {
		lv := s.level[l.varIdx()]
		if s.lbdStamp[lv] != s.lbdEpoch {
			s.lbdStamp[lv] = s.lbdEpoch
			n++
		}
	}
	return n
}

// reduceDB removes roughly half of the learned clauses, keeping low-LBD
// (glue) and recently active ones. Clauses currently acting as reasons are
// locked via a header bit.
func (s *Solver) reduceDB() {
	for _, p := range s.trail {
		if r := s.reasonC[p.varIdx()]; r != crefUndef {
			s.ca.data[r] |= hdrLocked
		}
	}
	slices.SortFunc(s.learnts, func(a, b cref) int {
		ga, gb := s.ca.lbd(a) <= 2, s.ca.lbd(b) <= 2
		if ga != gb {
			if ga {
				return -1
			}
			return 1
		}
		switch aa, ba := s.ca.act(a), s.ca.act(b); {
		case aa > ba:
			return -1
		case aa < ba:
			return 1
		}
		return 0
	})
	keep := s.learnts[:0]
	limit := len(s.learnts) / 2
	for i, c := range s.learnts {
		if i < limit || s.ca.data[c]&hdrLocked != 0 || s.ca.lbd(c) <= 2 {
			keep = append(keep, c)
		} else {
			s.detach(c)
			s.ca.free(c)
		}
	}
	s.learnts = keep
	for _, p := range s.trail {
		if r := s.reasonC[p.varIdx()]; r != crefUndef {
			s.ca.data[r] &^= hdrLocked
		}
	}
	// Compact the arena once deleted clauses waste a third of it.
	if 3*s.ca.wasted > len(s.ca.data) {
		s.garbageCollect()
	}
}

func (s *Solver) detach(c cref) {
	ls := s.ca.lits(c)
	s.removeWatch(plit(ls[0]).neg(), c)
	s.removeWatch(plit(ls[1]).neg(), c)
}

func (s *Solver) removeWatch(x plit, c cref) {
	ws := s.watches[x][:s.wlen[x]]
	j := 0
	for _, w := range ws {
		if w.c&^crefBinary != c {
			ws[j] = w
			j++
		}
	}
	s.wlen[x] = int32(j)
}

// garbageCollect compacts the clause arena, dropping deleted clauses and
// rewriting every live reference (problem/learned lists, reasons,
// watchers). Triggered deterministically from reduceDB, so solver runs
// stay reproducible.
func (s *Solver) garbageCollect() {
	to := clauseArena{data: make([]uint32, 0, len(s.ca.data)-s.ca.wasted)}
	move := func(c cref) cref {
		if s.ca.data[c]&hdrMoved != 0 {
			return cref(s.ca.data[c+1])
		}
		first := s.ca.first(c)
		nc := cref(len(to.data) + int(c) - first)
		to.data = append(to.data, s.ca.data[first:first+s.ca.words(c)]...)
		to.data[nc] &^= hdrMoved | hdrLocked
		s.ca.data[c] |= hdrMoved
		s.ca.data[c+1] = uint32(nc)
		return nc
	}
	for i, c := range s.clauses {
		s.clauses[i] = move(c)
	}
	for i, c := range s.learnts {
		s.learnts[i] = move(c)
	}
	for _, p := range s.trail {
		if v := p.varIdx(); s.reasonC[v] != crefUndef {
			s.reasonC[v] = move(s.reasonC[v])
		}
	}
	for i, ws := range s.watches {
		for j := range ws[:s.wlen[i]] {
			ws[j].c = move(ws[j].c&^crefBinary) | ws[j].c&crefBinary
		}
	}
	s.ca = to
}

// luby returns the Luby restart sequence value for index i (1-based).
func luby(i int64) int64 {
	// Find the subsequence containing i.
	var k int64 = 1
	for (1<<uint(k))-1 < i {
		k++
	}
	for {
		if (1<<uint(k))-1 == i {
			return 1 << uint(k-1)
		}
		i = i - (1 << uint(k-1)) + 1
		k = 1
		for (1<<uint(k))-1 < i {
			k++
		}
	}
}

// ctxCheckConflicts is how many conflicts pass between context polls in
// a cancellable solve. A conflict costs microseconds (propagation +
// analysis + backtracking), so polling every 1024 keeps cancellation
// latency in the low milliseconds while adding one masked-counter
// branch per conflict.
const ctxCheckConflicts = 1024

// Solve decides the formula under the given assumption literals, if any.
// The assumptions behave like temporary unit clauses: Unsat means the
// formula plus assumptions is unsatisfiable (the base formula may still be
// satisfiable under other assumptions). Repeated calls reuse the solver's
// learned clauses and activity state, which is what makes the OLSQ
// bound sweep incremental.
//
// Once ctx is done the search stops at the next conflict poll and
// Unknown is returned — the same verdict as conflict-budget exhaustion,
// and equally sound: the solver's learned state stays valid for later
// calls. Callers distinguish cancellation from budget exhaustion by
// checking ctx.Err(). An uncancellable context adds no work to the
// search loop.
func (s *Solver) Solve(ctx context.Context, assumptions ...Lit) Status {
	done := ctx.Done()
	if done != nil {
		select {
		case <-done:
			return Unknown
		default:
		}
	}
	if s.unsat {
		return Unsat
	}
	asm := s.assumeBuf[:0]
	for _, a := range assumptions {
		if v := a.Var(); v < 1 || v > s.nVars {
			panic(fmt.Sprintf("sat: assumption %d references unallocated variable", a))
		}
		asm = append(asm, packLit(a))
	}
	s.assumeBuf = asm
	s.backtrackTo(0)
	if s.propagate() != crefUndef {
		s.unsat = true
		return Unsat
	}

	var restartNum int64 = 1
	conflictsAtStart := s.conflicts
	conflictBudget := luby(restartNum) * 100

	for {
		confl := s.propagate()
		if confl != crefUndef {
			s.conflicts++
			if s.decisionLevel() == 0 {
				s.unsat = true
				return Unsat
			}
			// If the conflict depends only on assumption decisions we
			// still learn and backtrack; when backtracking pops an
			// assumption we detect failure at re-assumption below.
			learnt, btLevel := s.analyze(confl)
			s.backtrackTo(btLevel)
			s.learned++
			if len(learnt) == 1 {
				if !s.enqueue(learnt[0], crefUndef) {
					s.unsat = true
					return Unsat
				}
			} else {
				c := s.ca.alloc(learnt, true)
				s.ca.setLBD(c, s.computeLBD(learnt))
				s.learnts = append(s.learnts, c)
				s.attach(c)
				s.bumpClause(c)
				if !s.enqueue(learnt[0], c) {
					panic("sat: asserting literal not enqueueable") // unreachable
				}
			}
			s.decayVar()
			if int64(len(s.learnts)) > int64(s.maxLearnts) {
				s.reduceDB()
				s.maxLearnts *= 1.3
			}
			if s.Budget > 0 && s.conflicts-conflictsAtStart >= s.Budget {
				s.backtrackTo(0)
				return Unknown
			}
			if done != nil && (s.conflicts-conflictsAtStart)%ctxCheckConflicts == 0 {
				select {
				case <-done:
					s.backtrackTo(0)
					return Unknown
				default:
				}
			}
			if s.conflicts-conflictsAtStart >= conflictBudget {
				// Luby restart.
				s.restarts++
				restartNum++
				conflictBudget = s.conflicts - conflictsAtStart + luby(restartNum)*100
				s.backtrackTo(0)
			}
			continue
		}

		// Re-establish assumptions that are not yet on the trail.
		allAssumed := true
		failed := false
		for _, a := range asm {
			switch s.vals[a] {
			case lTrue:
				continue
			case lFalse:
				failed = true
			default:
				s.trailLi = append(s.trailLi, len(s.trail))
				if !s.enqueue(a, crefUndef) {
					failed = true
				}
				allAssumed = false
			}
			break
		}
		if failed {
			s.backtrackTo(0)
			return Unsat
		}
		if !allAssumed {
			continue
		}

		// Pick a branching variable.
		v := s.pickBranchVar()
		if v == 0 {
			return Sat
		}
		s.decisions++
		s.trailLi = append(s.trailLi, len(s.trail))
		p := plit(v << 1)
		if !s.phase[v] {
			p |= 1
		}
		if !s.enqueue(p, crefUndef) {
			panic("sat: decision enqueue failed") // unreachable
		}
	}
}

func (s *Solver) pickBranchVar() int {
	for {
		v := s.order.pop()
		if v == 0 {
			return 0
		}
		if s.vals[2*v] == lUndef {
			return v
		}
	}
}

// varHeap is a max-heap of variables ordered by activity. pos holds each
// variable's heap index (-1 when absent), so membership checks — needed
// every time backtracking re-inserts variables — are O(1) array reads
// and the heap can never accumulate duplicates.
type varHeap struct {
	s    *Solver
	heap []int32
	pos  []int32 // var -> heap index, -1 when absent
}

func (h *varHeap) inHeap(v int) bool { return h.pos[v] >= 0 }

// pushIfAbsent inserts v unless it is already queued.
func (h *varHeap) pushIfAbsent(v int) {
	if h.pos[v] >= 0 {
		return
	}
	h.heap = append(h.heap, int32(v))
	h.pos[v] = int32(len(h.heap) - 1)
	h.up(len(h.heap) - 1)
}

func (h *varHeap) pop() int {
	if len(h.heap) == 0 {
		return 0
	}
	top := h.heap[0]
	last := len(h.heap) - 1
	h.heap[0] = h.heap[last]
	h.pos[h.heap[0]] = 0
	h.heap = h.heap[:last]
	h.pos[top] = -1
	if len(h.heap) > 0 {
		h.down(0)
	}
	return int(top)
}

// up and down sift by moving a hole: each step shifts one entry into
// the hole, and the sifted variable is written once, at its final
// position. A variable ranks above another when its activity is
// strictly greater.
func (h *varHeap) up(i int) {
	act := h.s.activity
	v := h.heap[i]
	for i > 0 {
		p := (i - 1) / 2
		pv := h.heap[p]
		if !(act[v] > act[pv]) {
			break
		}
		h.heap[i] = pv
		h.pos[pv] = int32(i)
		i = p
	}
	h.heap[i] = v
	h.pos[v] = int32(i)
}

func (h *varHeap) down(i int) {
	act := h.s.activity
	n := len(h.heap)
	v := h.heap[i]
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && act[h.heap[r]] > act[h.heap[c]] {
			c = r
		}
		cv := h.heap[c]
		if !(act[cv] > act[v]) {
			break
		}
		h.heap[i] = cv
		h.pos[cv] = int32(i)
		i = c
	}
	h.heap[i] = v
	h.pos[v] = int32(i)
}
