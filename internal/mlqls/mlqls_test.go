package mlqls

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/qubikos"
	"repro/internal/router"
)

func TestRouteTriangleOnLine(t *testing.T) {
	c := circuit.New(3)
	c.MustAppend(circuit.NewCX(0, 1), circuit.NewCX(1, 2), circuit.NewCX(0, 2))
	dev := arch.Line(4)
	res, err := router.RouteWithContext(context.Background(), New(Options{Seed: 1}), c, dev)
	if err != nil {
		t.Fatal(err)
	}
	if err := router.Validate(c, dev, res); err != nil {
		t.Fatalf("invalid: %v", err)
	}
	if res.SwapCount < 1 {
		t.Error("triangle on a line needs at least one swap")
	}
}

func TestCoarseningShrinks(t *testing.T) {
	g := newWeightedGraph(10)
	for i := 0; i < 9; i++ {
		g.addEdge(i, i+1, i+1)
	}
	coarse, parent := coarsen(g, newTestRand())
	if coarse.n >= g.n {
		t.Fatalf("coarsen did not shrink: %d -> %d", g.n, coarse.n)
	}
	// Parent must be a valid surjection onto [0, coarse.n).
	seen := make([]bool, coarse.n)
	for _, p := range parent {
		if p < 0 || p >= coarse.n {
			t.Fatalf("parent out of range: %d", p)
		}
		seen[p] = true
	}
	for i, s := range seen {
		if !s {
			t.Fatalf("cluster %d has no members", i)
		}
	}
}

func TestCoarseningPreservesTotalWeight(t *testing.T) {
	g := newWeightedGraph(8)
	g.addEdge(0, 1, 5)
	g.addEdge(2, 3, 4)
	g.addEdge(1, 2, 1)
	g.addEdge(4, 5, 7)
	coarse, parent := coarsen(g, newTestRand())
	// Weight across clusters plus weight absorbed inside clusters must
	// equal the original total.
	absorbed := 0
	for _, e := range g.edges {
		if parent[e.u] == parent[e.v] {
			absorbed += int(e.w)
		}
	}
	crossing := 0
	for _, e := range coarse.edges {
		crossing += int(e.w)
	}
	total := 0
	for _, e := range g.edges {
		total += int(e.w)
	}
	if absorbed+crossing != total {
		t.Fatalf("weight leak: absorbed %d + crossing %d != total %d", absorbed, crossing, total)
	}
}

func TestPlacementIsInjective(t *testing.T) {
	b, err := qubikos.Generate(arch.GoogleSycamore54(),
		qubikos.Options{NumSwaps: 5, TargetTwoQubitGates: 150, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	r := New(Options{Seed: 3})
	skeleton := router.TwoQubitSkeleton(b.Circuit)
	place := r.multilevelPlace(skeleton, b.Device, newTestRand(), new(router.CtxChecker))
	if err := place.Validate(b.Device.NumQubits()); err != nil {
		t.Fatalf("multilevel placement invalid: %v", err)
	}
}

func TestRouteQubikosValidAndAboveOptimal(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		b, err := qubikos.Generate(arch.RigettiAspen4(),
			qubikos.Options{NumSwaps: 2, TargetTwoQubitGates: 60, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		res, err := router.RouteWithContext(context.Background(), New(Options{Seed: seed}), b.Circuit, b.Device)
		if err != nil {
			t.Fatal(err)
		}
		if err := router.Validate(b.Circuit, b.Device, res); err != nil {
			t.Fatalf("seed=%d: %v", seed, err)
		}
		if res.SwapCount < b.OptSwaps {
			t.Fatalf("seed=%d: below proven optimum", seed)
		}
		if res.Tool != "ml-qls" {
			t.Errorf("tool name %q", res.Tool)
		}
	}
}

func TestRouteDeterministic(t *testing.T) {
	b, err := qubikos.Generate(arch.IBMRochester53(),
		qubikos.Options{NumSwaps: 3, TargetTwoQubitGates: 100, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	a, err := router.RouteWithContext(context.Background(), New(Options{Seed: 8}), b.Circuit, b.Device)
	if err != nil {
		t.Fatal(err)
	}
	c, err := router.RouteWithContext(context.Background(), New(Options{Seed: 8}), b.Circuit, b.Device)
	if err != nil {
		t.Fatal(err)
	}
	if a.SwapCount != c.SwapCount {
		t.Errorf("nondeterministic: %d vs %d", a.SwapCount, c.SwapCount)
	}
}

func TestRouteOnAllPaperDevices(t *testing.T) {
	for _, dev := range arch.PaperDevices() {
		b, err := qubikos.Generate(dev, qubikos.Options{NumSwaps: 3, TargetTwoQubitGates: 80, Seed: 19})
		if err != nil {
			t.Fatal(err)
		}
		res, err := router.RouteWithContext(context.Background(), New(Options{Seed: 2}), b.Circuit, b.Device)
		if err != nil {
			t.Fatalf("%s: %v", dev.Name(), err)
		}
		if err := router.Validate(b.Circuit, b.Device, res); err != nil {
			t.Fatalf("%s: %v", dev.Name(), err)
		}
	}
}

// TestRefineSteadyStateAllocsBounded pins the flat-graph rewrite of the
// refinement sweep: a pass allocates only its visit permutation — every
// weight lookup is an index into the flat edge array, never a map.
func TestRefineSteadyStateAllocsBounded(t *testing.T) {
	dev := arch.Grid3x3()
	g := newWeightedGraph(9)
	for i := 0; i < 9; i++ {
		g.addEdge(i, (i+1)%9, i+1)
		g.addEdge(i, (i+4)%9, 1)
	}
	base := router.IdentityMapping(9)
	const passes = 6
	allocs := testing.AllocsPerRun(10, func() {
		rng := rand.New(rand.NewSource(3))
		pl := base.Clone()
		refine(g, pl, dev, passes, rng)
	})
	// Budget: the RNG (2), the placement clone (1), the inverse (1), and
	// one visit permutation per pass. Map-backed weights blew far past
	// this on every cost() call.
	if allocs > passes+6 {
		t.Fatalf("refine allocates %.1f objects over %d passes; weight lookups are allocating again", allocs, passes)
	}
}

func TestRouteTooManyQubits(t *testing.T) {
	c := circuit.New(9)
	if _, err := router.RouteWithContext(context.Background(), New(Options{}), c, arch.Line(4)); err == nil {
		t.Fatal("oversized circuit accepted")
	}
}

func newTestRand() *rand.Rand { return rand.New(rand.NewSource(1)) }
