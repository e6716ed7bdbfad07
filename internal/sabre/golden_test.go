package sabre_test

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/qubikos"
	"repro/internal/router"
	"repro/internal/sabre"
)

// goldenCase pins one routing instance: the expected swap count and a
// fingerprint over the initial mapping and the full transpiled gate
// stream. The expectations were recorded from the pre-optimization
// engine (map-based adjacency, [][]int distances, per-decision
// allocations); the allocation-free engine must reproduce them exactly,
// which guards the hot-path rewrite against behavioural drift.
type goldenCase struct {
	name   string
	device func() *arch.Device
	circ   func(t *testing.T, dev *arch.Device) *circuit.Circuit
	opts   sabre.Options
	swaps  int
	print  uint64 // FNV-1a fingerprint of mapping + gates
}

func randomCircuit(nQ, gates int, seed int64) *circuit.Circuit {
	c := circuit.New(nQ)
	rng := rand.New(rand.NewSource(seed))
	for len(c.Gates) < gates {
		a, b := rng.Intn(nQ), rng.Intn(nQ)
		if a != b {
			c.MustAppend(circuit.NewCX(a, b))
		}
	}
	return c
}

func qubikosCircuit(swaps, gates int, seed int64) func(t *testing.T, dev *arch.Device) *circuit.Circuit {
	return func(t *testing.T, dev *arch.Device) *circuit.Circuit {
		b, err := qubikos.Generate(dev, qubikos.Options{
			NumSwaps: swaps, TargetTwoQubitGates: gates, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		return b.Circuit
	}
}

func fingerprint(res *router.Result) uint64 {
	h := fnv.New64a()
	for _, p := range res.InitialMapping {
		fmt.Fprintf(h, "m%d,", p)
	}
	for _, g := range res.Transpiled.Gates {
		fmt.Fprintf(h, "g%d:%d:%d;", g.Kind, g.Q0, g.Q1)
	}
	return h.Sum64()
}

func goldenCases() []goldenCase {
	return []goldenCase{
		{
			name:   "grid3x3-random",
			device: arch.Grid3x3,
			circ: func(t *testing.T, dev *arch.Device) *circuit.Circuit {
				return randomCircuit(8, 60, 2)
			},
			opts:  sabre.Options{Trials: 6, Seed: 4},
			swaps: 26,
			print: 0x2eaaf2c90b85d5be,
		},
		{
			name:   "aspen4-qubikos",
			device: arch.RigettiAspen4,
			circ:   qubikosCircuit(5, 300, 9),
			opts:   sabre.Options{Trials: 4, Seed: 7},
			swaps:  48,
			print:  0x4136cecffddc96b2,
		},
		{
			name:   "sycamore54-qubikos",
			device: arch.GoogleSycamore54,
			circ:   qubikosCircuit(8, 500, 11),
			opts:   sabre.Options{Trials: 3, Seed: 13},
			swaps:  292,
			print:  0x82f5ec9a1caf0736,
		},
		{
			name:   "eagle127-qubikos",
			device: arch.IBMEagle127,
			circ:   qubikosCircuit(5, 600, 17),
			opts:   sabre.Options{Trials: 2, Seed: 21},
			swaps:  1137,
			print:  0xe0a1d41e296b6607,
		},
		{
			name:   "aspen4-decay-lookahead",
			device: arch.RigettiAspen4,
			circ:   qubikosCircuit(5, 300, 23),
			opts:   sabre.Options{Trials: 2, Seed: 5, LookaheadDecay: 0.7},
			swaps:  106,
			print:  0x6a7dbc2574dbf31b,
		},
	}
}

// TestGoldenCorpus routes the pinned-seed corpus and compares against
// the recorded pre-refactor expectations. Results are also re-validated
// independently, so a fingerprint match can't hide an invalid routing.
func TestGoldenCorpus(t *testing.T) {
	for _, gc := range goldenCases() {
		gc := gc
		t.Run(gc.name, func(t *testing.T) {
			dev := gc.device()
			c := gc.circ(t, dev)
			res, err := router.RouteWithContext(context.Background(), sabre.New(gc.opts), c, dev)
			if err != nil {
				t.Fatal(err)
			}
			if err := router.Validate(c, dev, res); err != nil {
				t.Fatalf("result no longer validates: %v", err)
			}
			if res.SwapCount != gc.swaps {
				t.Errorf("swap count %d, pre-refactor engine produced %d", res.SwapCount, gc.swaps)
			}
			if got := fingerprint(res); got != gc.print {
				t.Errorf("fingerprint %#x, pre-refactor engine produced %#x", got, gc.print)
			}
		})
	}
}

// TestRouteAllocsFlatInTrials pins the acceptance criterion that the
// swap-decision loop allocates nothing in steady state: adding trials
// must add only fixed per-trial setup (seed RNG, initial permutation,
// mapping clones, recorded output circuit), never per-decision garbage.
// GOMAXPROCS is pinned to 1 so worker-goroutine scheduling noise doesn't
// enter the allocation count.
func TestRouteAllocsFlatInTrials(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	dev := arch.Grid3x3()
	c := randomCircuit(9, 200, 5)
	route := func(trials int) func() {
		return func() {
			if _, err := router.RouteWithContext(context.Background(), sabre.New(sabre.Options{Trials: trials, Seed: 3}), c, dev); err != nil {
				t.Fatal(err)
			}
		}
	}
	a2 := testing.AllocsPerRun(3, route(2))
	a10 := testing.AllocsPerRun(3, route(10))
	perTrial := (a10 - a2) / 8
	// Each of this circuit's trials makes >100 swap decisions across its
	// seven passes; the pre-refactor engine allocated several objects per
	// decision, so a bound this tight fails on any per-decision garbage.
	if perTrial > 300 {
		t.Fatalf("each extra trial allocates %.0f objects; the decision loop is allocating again", perTrial)
	}
}

// TestParallelMatchesSerial pins multi-trial scheduling independence: a
// Route that fans trials across GOMAXPROCS workers must produce exactly
// the result of a single-worker run. A no-op Trace forces the serial
// path, so the comparison exercises the real worker pool against it.
func TestParallelMatchesSerial(t *testing.T) {
	for _, gc := range goldenCases() {
		gc := gc
		t.Run(gc.name, func(t *testing.T) {
			dev := gc.device()
			c := gc.circ(t, dev)
			par, err := router.RouteWithContext(context.Background(), sabre.New(gc.opts), c, dev)
			if err != nil {
				t.Fatal(err)
			}
			serOpts := gc.opts
			serOpts.Trace = func(sabre.TraceStep) {} // forces workers=1
			ser, err := router.RouteWithContext(context.Background(), sabre.New(serOpts), c, dev)
			if err != nil {
				t.Fatal(err)
			}
			if par.SwapCount != ser.SwapCount {
				t.Errorf("parallel %d swaps, serial %d", par.SwapCount, ser.SwapCount)
			}
			if fingerprint(par) != fingerprint(ser) {
				t.Errorf("parallel and serial runs diverged beyond swap count")
			}
		})
	}
}
