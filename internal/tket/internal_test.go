package tket

import (
	"math/rand"
	"testing"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/router"
)

func TestPlaceInjectiveAndDegreeAware(t *testing.T) {
	c := circuit.New(9)
	// A hub-heavy interaction graph.
	for i := 1; i < 6; i++ {
		c.MustAppend(circuit.NewCX(0, i))
	}
	dev := arch.Grid3x3()
	m := place(router.TwoQubitSkeleton(c), dev, rand.New(rand.NewSource(1)))
	if err := m.Validate(dev.NumQubits()); err != nil {
		t.Fatal(err)
	}
	// The hub (q0, degree 5) should land on the grid center (degree 4).
	if m[0] != 4 {
		t.Errorf("hub placed at p%d, want the center p4", m[0])
	}
}

func TestDecisionBaseSumsDiscountFutureSlices(t *testing.T) {
	c := circuit.New(4)
	c.MustAppend(circuit.NewCX(0, 1), circuit.NewCX(0, 2))
	dev := arch.Line(4)
	dag := circuit.NewDAG(c)
	slices := dag.Layers()
	if len(slices) != 2 {
		t.Fatalf("layers=%d", len(slices))
	}
	m := router.Mapping{0, 1, 3, 2} // cx(0,1) adjacent; cx(0,2) at distance 3
	lay := &layout{m: m, inv: m.Inverse(4)}
	e := newEngine(dev)
	e.rebuild(slices[0], slices, 0, dag, lay)
	// The reference score is 1 + 0.5*3 = 2.5, and a key is four times a
	// candidate's change to it: a current-slice hop weighs 4, a next-slice
	// hop 2.
	before, _ := directScore(slices[0], slices, 0, dag, lay, dev)
	if before != 2.5 {
		t.Fatalf("reference score %v, want 2.5", before)
	}
	for _, tc := range []struct {
		a, b    int
		key, d0 int64
	}{
		{3, 3, 0, 0},  // identity: nothing moves
		{2, 3, -2, 0}, // cx(0,2) one hop closer: δ1 = -1
		{1, 3, 4, 1},  // cx(0,1) one hop apart: δ0 = +1
	} {
		key, d0 := e.score(tc.a, tc.b, lay)
		if key != tc.key || d0 != tc.d0 {
			t.Fatalf("swap (%d,%d): key=%d delta0=%d, want %d and %d", tc.a, tc.b, key, d0, tc.key, tc.d0)
		}
		lay.swap(tc.a, tc.b)
		after, _ := directScore(slices[0], slices, 0, dag, lay, dev)
		lay.swap(tc.a, tc.b)
		if float64(key) != 4*(after-before) {
			t.Fatalf("swap (%d,%d): key=%d, reference change %v", tc.a, tc.b, key, after-before)
		}
	}
}

// directScore re-sums every slice in scope under lay, in the reference
// float operation order: the discounted score whose differences the
// integer keys must reproduce exactly (key = 4·(after − before)). It also
// returns the current-slice sum.
func directScore(pending []int, slices [][]int, si int, dag *circuit.DAG, lay *layout, dev *arch.Device) (float64, int64) {
	sum := func(gates []int) int64 {
		s := int64(0)
		for _, v := range gates {
			gt := dag.Gate(v)
			s += int64(dev.Distances().At(lay.m[gt.Q0], lay.m[gt.Q1]))
		}
		return s
	}
	s0 := sum(pending)
	total := float64(s0)
	w := 0.5 // each following slice weighs half the one before it
	for d := 1; d <= lookaheadSlices && si+d < len(slices); d++ {
		total += w * float64(sum(slices[si+d]))
		w *= 0.5
	}
	return total, s0
}

func TestScoreCandidateMatchesDirectEvaluation(t *testing.T) {
	// A swap's positional key must be four times the change of the
	// reference score when the slices are re-summed with the swap applied.
	c := circuit.New(4)
	c.MustAppend(circuit.NewCX(0, 3), circuit.NewCX(1, 2))
	dev := arch.Line(4)
	dag := circuit.NewDAG(c)
	slices := dag.Layers()
	m := router.IdentityMapping(4)
	lay := &layout{m: m, inv: m.Inverse(4)}
	e := newEngine(dev)
	e.rebuild(slices[0], slices, 0, dag, lay)
	before, _ := directScore(slices[0], slices, 0, dag, lay, dev)
	key, _ := e.score(0, 1, lay)
	lay.swap(0, 1)
	after, _ := directScore(slices[0], slices, 0, dag, lay, dev)
	lay.swap(0, 1)
	if float64(key) != 4*(after-before) {
		t.Fatalf("positional key=%d, direct re-sum change=%v", key, after-before)
	}
}

// candidatePairs lists the swaps a decision must score: the couplers
// touching a qubit of a pending gate, in first-seen order (pending gates
// in order, Q0 before Q1, neighbors in adjacency order), as program-qubit
// pairs with a < b.
func candidatePairs(pending []int, dag *circuit.DAG, lay *layout, dev *arch.Device) [][2]int {
	seen := map[[2]int]bool{}
	var out [][2]int
	for _, v := range pending {
		gt := dag.Gate(v)
		for _, q := range [2]int{gt.Q0, gt.Q1} {
			p := lay.m[q]
			for _, pn := range dev.Graph().Neighbors(p) {
				edge := [2]int{min(p, pn), max(p, pn)}
				if seen[edge] {
					continue
				}
				seen[edge] = true
				a, b := q, lay.inv[pn]
				out = append(out, [2]int{min(a, b), max(a, b)})
			}
		}
	}
	return out
}

// TestDecisionStateMatchesRebuild drives the decision state the way the
// routing loop does — rebuild once for a pending set, then accept swap
// after swap — and checks after every accepted swap that the maintained
// gate distances equal a from-scratch rebuild under the new layout. At
// every decision each candidate's key must be exactly four times the
// change of the re-summed float score, decide must pick what the float
// reference picks over the same candidates with the same random stream,
// and moved must report every pending gate a swap made executable.
func TestDecisionStateMatchesRebuild(t *testing.T) {
	devices := []*arch.Device{arch.Grid(4, 5), arch.HeavyHex(2, 5)}
	for _, dev := range devices {
		for seed := int64(1); seed <= 4; seed++ {
			checkDecisionState(t, dev, seed)
		}
	}
}

func checkDecisionState(t *testing.T, dev *arch.Device, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	nQ := dev.NumQubits()
	c := circuit.New(nQ)
	for len(c.Gates) < 8*nQ {
		a, b := rng.Intn(nQ), rng.Intn(nQ)
		if a != b {
			c.MustAppend(circuit.NewCX(a, b))
		}
	}
	dag := circuit.NewDAG(c)
	slices := dag.Layers()
	m := router.Mapping(rng.Perm(nQ))
	lay := &layout{m: m, inv: m.Inverse(nQ)}
	e := newEngine(dev)
	fresh := newEngine(dev)

	for si := 0; si < len(slices); si += 1 + rng.Intn(3) {
		var pending []int
		for _, v := range slices[si] {
			gt := dag.Gate(v)
			if !dev.Graph().HasEdge(lay.m[gt.Q0], lay.m[gt.Q1]) {
				pending = append(pending, v)
			}
		}
		if len(pending) == 0 {
			continue
		}
		e.rebuild(pending, slices, si, dag, lay)
		for step := 0; step < 6; step++ {
			cands := candidatePairs(pending, dag, lay, dev)
			if len(cands) == 0 {
				t.Fatalf("%s seed %d slice %d: no candidates", dev.Name(), seed, si)
			}
			before, before0 := directScore(pending, slices, si, dag, lay, dev)
			// The float reference's choice: lowest re-summed score, an
			// equal score replacing the best on Intn(2) == 0.
			tieSeed := rng.Int63()
			ref := rand.New(rand.NewSource(tieSeed))
			var refPick [2]int
			var refScore float64
			var refDelta0 int64
			for ci, cd := range cands {
				a, b := cd[0], cd[1]
				key, d0 := e.score(a, b, lay)
				lay.swap(a, b)
				after, after0 := directScore(pending, slices, si, dag, lay, dev)
				lay.swap(a, b)
				if float64(key) != 4*(after-before) || d0 != after0-before0 {
					t.Fatalf("%s seed %d slice %d swap (%d,%d): key=%d delta0=%d, re-sum change=%v delta0=%d",
						dev.Name(), seed, si, a, b, key, d0, after-before, after0-before0)
				}
				if ci == 0 || after < refScore || (after == refScore && ref.Intn(2) == 0) {
					refPick, refScore, refDelta0 = cd, after, after0-before0
				}
			}
			a, b, d0, n := e.decide(lay, rand.New(rand.NewSource(tieSeed)))
			if n != len(cands) || [2]int{a, b} != refPick || d0 != refDelta0 {
				t.Fatalf("%s seed %d slice %d step %d: decide picked (%d,%d) delta0=%d over %d candidates, reference (%d,%d) delta0=%d over %d",
					dev.Name(), seed, si, step, a, b, d0, n, refPick[0], refPick[1], refDelta0, len(cands))
			}

			cd := cands[rng.Intn(len(cands))]
			a, b = cd[0], cd[1]
			ran := executable(pending, dag, lay, dev)
			lay.swap(a, b)
			runnable := e.moved(a, b, lay)
			for v, now := range executable(pending, dag, lay, dev) {
				if now && !ran[v] && !runnable {
					t.Fatalf("%s seed %d slice %d step %d: swap (%d,%d) made a pending gate executable, moved reports none",
						dev.Name(), seed, si, step, a, b)
				}
			}

			fresh.rebuild(pending, slices, si, dag, lay)
			if len(e.recs) != len(fresh.recs) {
				t.Fatalf("%d records, rebuild gives %d", len(e.recs), len(fresh.recs))
			}
			for i := range e.recs {
				if e.recs[i] != fresh.recs[i] {
					t.Fatalf("%s seed %d slice %d step %d: record %d = %+v, rebuild gives %+v",
						dev.Name(), seed, si, step, i, e.recs[i], fresh.recs[i])
				}
			}
		}
	}
}

// executable reports, per pending gate, whether its qubits are adjacent
// under lay.
func executable(pending []int, dag *circuit.DAG, lay *layout, dev *arch.Device) []bool {
	out := make([]bool, len(pending))
	for i, v := range pending {
		gt := dag.Gate(v)
		out[i] = dev.Graph().HasEdge(lay.m[gt.Q0], lay.m[gt.Q1])
	}
	return out
}

// TestDecisionLoopZeroAllocs pins the acceptance criterion of the
// hot-path rewrite: a warm swap decision — rebuilding the decision
// state, scoring every candidate, and applying and undoing a swap —
// performs zero heap allocations.
func TestDecisionLoopZeroAllocs(t *testing.T) {
	dev := arch.Grid3x3()
	c := circuit.New(9)
	for i := 0; i < 8; i++ {
		c.MustAppend(circuit.NewCX(i, (i+3)%9))
		c.MustAppend(circuit.NewCX((i+1)%9, (i+5)%9))
	}
	dag := circuit.NewDAG(c)
	slices := dag.Layers()
	m := router.IdentityMapping(9)
	lay := &layout{m: m, inv: m.Inverse(9)}
	e := newEngine(dev)
	rng := rand.New(rand.NewSource(1))
	decide := func() {
		e.rebuild(slices[0], slices, 0, dag, lay)
		a, b, _, n := e.decide(lay, rng)
		if n == 0 {
			t.Fatal("no candidates")
		}
		lay.swap(a, b)
		e.moved(a, b, lay)
		lay.swap(a, b)
		e.moved(a, b, lay)
	}
	decide() // warm-up
	if a := testing.AllocsPerRun(50, decide); a != 0 {
		t.Fatalf("warm swap decision allocates %.1f objects, want 0", a)
	}
}

func TestCandidatesTouchActiveQubits(t *testing.T) {
	c := circuit.New(4)
	c.MustAppend(circuit.NewCX(0, 3))
	dev := arch.Line(4)
	dag := circuit.NewDAG(c)
	slices := dag.Layers()
	m := router.IdentityMapping(4)
	lay := &layout{m: m, inv: m.Inverse(4)}
	e := newEngine(dev)
	e.rebuild([]int{0}, slices, 0, dag, lay)
	// The active qubits sit at the line's ends, so exactly the couplers
	// (0,1) and (2,3) touch them.
	a, b, _, n := e.decide(lay, rand.New(rand.NewSource(1)))
	if n != 2 {
		t.Fatalf("%d candidates, want the 2 couplers at the line's ends", n)
	}
	if a != 0 && b != 0 && a != 3 && b != 3 {
		t.Fatalf("chosen swap (%d,%d) touches neither active qubit", a, b)
	}
}

// BenchmarkTketDecisionLoop isolates one warm swap decision on Eagle-127:
// enumerate and score every candidate of a pending slice. The
// decision state is built once outside the timer, as the routing loop
// keeps it across decisions until the pending set changes. Run with
// -benchmem; B/op and allocs/op must both report 0.
//
//	go test ./internal/tket -run xxx -bench BenchmarkTketDecisionLoop -benchmem
func BenchmarkTketDecisionLoop(b *testing.B) {
	dev := arch.IBMEagle127()
	nQ := dev.NumQubits()
	rng := rand.New(rand.NewSource(1))
	c := circuit.New(nQ)
	for len(c.Gates) < 3000 {
		q0, q1 := rng.Intn(nQ), rng.Intn(nQ)
		if q0 != q1 {
			c.MustAppend(circuit.NewCX(q0, q1))
		}
	}
	dag := circuit.NewDAG(c)
	slices := dag.Layers()
	m := router.IdentityMapping(nQ)
	lay := &layout{m: m, inv: m.Inverse(nQ)}
	e := newEngine(dev)
	e.rebuild(slices[0], slices, 0, dag, lay)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.decide(lay, rng)
	}
}
