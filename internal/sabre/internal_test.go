package sabre

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/router"
)

func TestLayoutSwapMaintainsInverse(t *testing.T) {
	m := router.Mapping{2, 0, 3, 1}
	lay := newLayout(m, 4)
	lay.swap(0, 3)
	if lay.m[0] != 1 || lay.m[3] != 2 {
		t.Fatalf("mapping after swap: %v", lay.m)
	}
	for p, q := range lay.inv {
		if q != -1 && lay.m[q] != p {
			t.Fatalf("inverse broken at p=%d", p)
		}
	}
}

func TestReverseCircuit(t *testing.T) {
	c := circuit.New(3)
	c.MustAppend(circuit.NewCX(0, 1), circuit.NewCX(1, 2), circuit.NewCX(0, 2))
	r := router.ReverseSkeleton(c)
	if r.Gates[0].Q1 != 2 || r.Gates[2].Q1 != 1 {
		t.Fatalf("reverse order wrong: %v", r.Gates)
	}
	if c.Gates[0].Q0 != 0 {
		t.Fatal("reverse mutated the original")
	}
}

func TestCollectExtendedSetBounded(t *testing.T) {
	// A long chain: extended set from the root must stop at the limit.
	c := circuit.New(2)
	for i := 0; i < 50; i++ {
		c.MustAppend(circuit.NewCX(0, 1))
	}
	dag := circuit.NewDAG(c)
	e := newPassEngine(arch.Line(2), Options{ExtendedSetSize: 20}.withDefaults(), dag.N())
	e.epoch++ // the run loop owns the decision epoch
	ext := e.collectExtendedSet(dag, []int{0})
	if len(ext) != 20 {
		t.Fatalf("extended set size %d want 20", len(ext))
	}
	for _, v := range ext {
		if v == 0 {
			t.Fatal("front gate leaked into the extended set")
		}
	}
}

func TestCollectExtendedSetShortCircuit(t *testing.T) {
	c := circuit.New(4)
	c.MustAppend(circuit.NewCX(0, 1), circuit.NewCX(1, 2), circuit.NewCX(2, 3))
	dag := circuit.NewDAG(c)
	e := newPassEngine(arch.Line(4), Options{}.withDefaults(), dag.N())
	e.epoch++ // the run loop owns the decision epoch
	ext := e.collectExtendedSet(dag, []int{0})
	if len(ext) != 2 {
		t.Fatalf("extended set %v want the two successors", ext)
	}
}

func TestCollectExtendedSetScratchReuse(t *testing.T) {
	// Repeated collections must not leak stamps between decisions: the
	// same call repeated gives the same set.
	c := circuit.New(4)
	c.MustAppend(circuit.NewCX(0, 1), circuit.NewCX(1, 2), circuit.NewCX(2, 3))
	dag := circuit.NewDAG(c)
	e := newPassEngine(arch.Line(4), Options{}.withDefaults(), dag.N())
	e.epoch++ // the run loop owns the decision epoch
	first := append([]int(nil), e.collectExtendedSet(dag, []int{0})...)
	for rep := 0; rep < 5; rep++ {
		e.epoch++
		got := e.collectExtendedSet(dag, []int{0})
		if len(got) != len(first) {
			t.Fatalf("rep %d: extended set %v, first collection gave %v", rep, got, first)
		}
		for i := range got {
			if got[i] != first[i] {
				t.Fatalf("rep %d: extended set %v, first collection gave %v", rep, got, first)
			}
		}
	}
}

func TestForceRouteTerminates(t *testing.T) {
	// Qubits at opposite ends of a line: forceRoute must emit exactly
	// dist-1 swaps.
	c := circuit.New(6)
	c.MustAppend(circuit.NewCX(0, 5))
	dag := circuit.NewDAG(c)
	dev := arch.Line(6)
	e := newPassEngine(dev, Options{}.withDefaults(), dag.N())
	e.out = circuit.New(6)
	lay := newLayout(router.IdentityMapping(6), 6)
	e.forceRoute(dag, 0, lay, true)
	if e.swaps != 4 {
		t.Fatalf("forceRoute used %d swaps, want 4 (distance 5)", e.swaps)
	}
	if !dev.Graph().HasEdge(lay.m[0], lay.m[5]) {
		t.Fatal("gate still not executable after forceRoute")
	}
}

func TestWithDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Trials != DefaultTrials || o.ExtendedSetSize != DefaultExtendedSetSize {
		t.Fatalf("defaults not applied: %+v", o)
	}
	if o.ExtendedSetWeight != DefaultExtendedSetWeight || o.DecayResetEvery != DefaultDecayResetEvery {
		t.Fatalf("defaults not applied: %+v", o)
	}
	o2 := Options{MappingPasses: -1}.withDefaults()
	if o2.MappingPasses != -1 {
		t.Fatal("explicit negative MappingPasses overridden")
	}
}

func TestWithDefaultsDisabledSentinel(t *testing.T) {
	o := Options{ExtendedSetWeight: Disabled, DecayIncrement: Disabled}.withDefaults()
	if o.ExtendedSetWeight != 0 {
		t.Fatalf("Disabled ExtendedSetWeight resolved to %v, want 0", o.ExtendedSetWeight)
	}
	if o.DecayIncrement != 0 {
		t.Fatalf("Disabled DecayIncrement resolved to %v, want 0", o.DecayIncrement)
	}
	// Any negative value is the sentinel, not just -1.
	o = Options{ExtendedSetWeight: -0.25, DecayIncrement: -3}.withDefaults()
	if o.ExtendedSetWeight != 0 || o.DecayIncrement != 0 {
		t.Fatalf("negative sentinel values not zeroed: %+v", o)
	}
}

// TestDisabledLookaheadChangesRouting checks the sentinel reaches the
// cost function: with ExtendedSetWeight disabled, the lookahead term is
// genuinely off, which must be able to change routing relative to the
// default weight (on a corpus where lookahead matters).
func TestDisabledLookaheadChangesRouting(t *testing.T) {
	dev := arch.Grid3x3()
	differs := false
	for seed := int64(0); seed < 8 && !differs; seed++ {
		c := circuit.New(9)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 80; i++ {
			a, b := rng.Intn(9), rng.Intn(9)
			if a != b {
				c.MustAppend(circuit.NewCX(a, b))
			}
		}
		on, err := router.RouteWithContext(context.Background(), New(Options{Trials: 2, Seed: seed}), c, dev)
		if err != nil {
			t.Fatal(err)
		}
		off, err := router.RouteWithContext(context.Background(), New(Options{Trials: 2, Seed: seed, ExtendedSetWeight: Disabled}), c, dev)
		if err != nil {
			t.Fatal(err)
		}
		if on.SwapCount != off.SwapCount {
			differs = true
		}
	}
	if !differs {
		t.Fatal("Disabled lookahead never changed any routing outcome; the sentinel is not reaching the cost function")
	}
}

// TestRunSteadyStateAllocs pins the tentpole property: a routing pass
// over a warm engine performs zero heap allocations — no per-decision
// maps, candidate slices, or cleared scratch.
func TestRunSteadyStateAllocs(t *testing.T) {
	dev := arch.Grid3x3()
	c := circuit.New(9)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		a, b := rng.Intn(9), rng.Intn(9)
		if a != b {
			c.MustAppend(circuit.NewCX(a, b))
		}
	}
	work := router.PadToDevice(c, dev)
	skeleton := router.TwoQubitSkeleton(work)
	dag := circuit.NewDAG(skeleton)
	e := newPassEngine(dev, Options{}.withDefaults(), dag.N())
	mapping := router.IdentityMapping(dev.NumQubits())
	e.run(dag, mapping, rng, false, nil, 0) // warm the scratch buffers
	allocs := testing.AllocsPerRun(10, func() {
		e.run(dag, mapping, rng, false, nil, 0)
	})
	if e.cntDecisions == 0 || e.cntCandidates == 0 {
		t.Fatalf("instrumented pass recorded no work: decisions=%d candidates=%d",
			e.cntDecisions, e.cntCandidates)
	}
	if allocs != 0 {
		t.Fatalf("routing pass allocated %v objects per run, want 0", allocs)
	}
}

// Parallel trials must reproduce the sequential outcome: per-trial seeds
// are fixed, so GOMAXPROCS must not affect the result.
func TestTrialsIndependentOfScheduling(t *testing.T) {
	c := circuit.New(8)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 60; i++ {
		a, b := rng.Intn(8), rng.Intn(8)
		if a != b {
			c.MustAppend(circuit.NewCX(a, b))
		}
	}
	dev := arch.Grid3x3()
	var counts []int
	for rep := 0; rep < 3; rep++ {
		res, err := router.RouteWithContext(context.Background(), New(Options{Trials: 6, Seed: 4}), c, dev)
		if err != nil {
			t.Fatal(err)
		}
		counts = append(counts, res.SwapCount)
	}
	if counts[0] != counts[1] || counts[1] != counts[2] {
		t.Fatalf("swap counts varied across runs: %v", counts)
	}
}
