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
	// Current slice distance 1, next slice distance 3: with no swap
	// applied the deltas are zero, so the score of an identity candidate
	// is 1 + 0.5*3 = 2.5.
	if e.base[0] != 1 || e.base[1] != 3 {
		t.Fatalf("base sums = %v, want [1 3]", e.base)
	}
	score, d0 := e.score(3, 3, lay)
	if score != 2.5 || d0 != 0 {
		t.Fatalf("score=%v delta0=%d, want 2.5 and 0", score, d0)
	}
}

// directScore re-sums every slice in scope under lay, in the reference
// float operation order: the evaluation the positional delta score must
// reproduce bit for bit. It also returns the current-slice sum.
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
	w := lookaheadDiscount
	for d := 1; d <= lookaheadSlices && si+d < len(slices); d++ {
		total += w * float64(sum(slices[si+d]))
		w *= lookaheadDiscount
	}
	return total, s0
}

func TestScoreCandidateMatchesDirectEvaluation(t *testing.T) {
	// A swap's positional score must equal re-summing the slices with
	// the swap applied.
	c := circuit.New(4)
	c.MustAppend(circuit.NewCX(0, 3), circuit.NewCX(1, 2))
	dev := arch.Line(4)
	dag := circuit.NewDAG(c)
	slices := dag.Layers()
	m := router.IdentityMapping(4)
	lay := &layout{m: m, inv: m.Inverse(4)}
	e := newEngine(dev)
	e.rebuild(slices[0], slices, 0, dag, lay)
	score, _ := e.score(0, 1, lay)
	lay.swap(0, 1)
	want, _ := directScore(slices[0], slices, 0, dag, lay, dev)
	lay.swap(0, 1)
	if score != want {
		t.Fatalf("positional score=%v, direct re-sum=%v", score, want)
	}
}

// TestDecisionStateMatchesRebuild drives the decision state the way the
// routing loop does — rebuild once for a pending set, then accept swap
// after swap — and checks after every accepted swap that the maintained
// base sums and gate distances equal a from-scratch rebuild under the
// new layout, and that every candidate's positional score equals
// re-summing the swapped layout.
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
			cands := e.collectCandidates(lay)
			if len(cands) == 0 {
				t.Fatalf("%s seed %d slice %d: no candidates", dev.Name(), seed, si)
			}
			_, before0 := directScore(pending, slices, si, dag, lay, dev)
			for _, cd := range cands {
				a, b := int(cd[0]), int(cd[1])
				score, d0 := e.score(a, b, lay)
				lay.swap(a, b)
				want, after0 := directScore(pending, slices, si, dag, lay, dev)
				lay.swap(a, b)
				if score != want || d0 != after0-before0 {
					t.Fatalf("%s seed %d slice %d swap (%d,%d): score=%v delta0=%d, re-sum=%v delta0=%d",
						dev.Name(), seed, si, a, b, score, d0, want, after0-before0)
				}
			}
			cd := cands[rng.Intn(len(cands))]
			a, b := int(cd[0]), int(cd[1])
			lay.swap(a, b)
			e.moved(a, b, lay)

			fresh.rebuild(pending, slices, si, dag, lay)
			for d := range e.base {
				if e.base[d] != fresh.base[d] {
					t.Fatalf("%s seed %d slice %d step %d: base[%d]=%d, rebuild gives %d",
						dev.Name(), seed, si, step, d, e.base[d], fresh.base[d])
				}
			}
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

// TestDecisionLoopZeroAllocs pins the acceptance criterion of the
// hot-path rewrite: a warm swap decision — rebuilding the decision
// state, collecting candidates, scoring every candidate, and applying
// and undoing a swap — performs zero heap allocations.
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
	decide := func() {
		e.rebuild(slices[0], slices, 0, dag, lay)
		cands := e.collectCandidates(lay)
		for ci := range cands {
			e.score(int(cands[ci][0]), int(cands[ci][1]), lay)
		}
		a, b := int(cands[0][0]), int(cands[0][1])
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
	cands := e.collectCandidates(lay)
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	for _, cd := range cands {
		if cd[0] != 0 && cd[1] != 0 && cd[0] != 3 && cd[1] != 3 {
			t.Fatalf("candidate %v touches neither active qubit", cd)
		}
	}
}

// BenchmarkTketDecisionLoop isolates one warm swap decision on Eagle-127:
// collect the candidates of a pending slice, then score every one. The
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
	decide := func() {
		cands := e.collectCandidates(lay)
		for ci := range cands {
			e.score(int(cands[ci][0]), int(cands[ci][1]), lay)
		}
	}
	decide() // warm the candidate backing
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		decide()
	}
}
