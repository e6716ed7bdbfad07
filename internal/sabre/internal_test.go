package sabre

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/router"
)

// newLayout pairs m with its inverse over nPhys physical qubits.
func newLayout(m router.Mapping, nPhys int) *layout {
	return &layout{m: m, inv: m.Inverse(nPhys)}
}

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
	e := newPassEngine(arch.Line(2), Options{}.withDefaults(), dag.N())
	e.epoch++ // the run loop owns the decision epoch
	ext := e.collectExtendedSet(dag, []int{0})
	if len(ext) != extendedSetSize {
		t.Fatalf("extended set size %d want %d", len(ext), extendedSetSize)
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
	if o := (Options{}).withDefaults(); o.Trials != DefaultTrials {
		t.Fatalf("defaults not applied: %+v", o)
	}
	if o := (Options{Trials: 3}).withDefaults(); o.Trials != 3 {
		t.Fatalf("explicit Trials overridden: %+v", o)
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
