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
	"repro/internal/pool"
	"repro/internal/qubikos"
	"repro/internal/router"
	"repro/internal/sabre"
)

// goldenCase pins one routing instance: the expected swap count and a
// fingerprint over the initial mapping and the full transpiled gate
// stream. The expectations were recorded from the pre-optimization
// engine (map-based adjacency, [][]int distances, per-decision
// allocations); the allocation-free engine must reproduce them exactly,
// which guards the hot-path rewrite against behavioural drift. The
// decision and candidate counts were recorded from the engine that
// scored every candidate in full; pinning them makes "the same decisions
// over the same candidates" a checked property of the engine that skips
// provably worse candidates, so a skip that dropped a candidate from the
// count or moved a tie fails here.
type goldenCase struct {
	name   string
	device func() *arch.Device
	circ   func(t *testing.T, dev *arch.Device) *circuit.Circuit
	opts   sabre.Options
	swaps  int
	print  uint64 // FNV-1a fingerprint of mapping + gates
	decide int64  // expected Counters().Decisions
	cands  int64  // expected Counters().Candidates
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
			opts:   sabre.Options{Trials: 6, Seed: 4},
			swaps:  26,
			print:  0x2eaaf2c90b85d5be,
			decide: 1187,
			cands:  8941,
		},
		{
			name:   "aspen4-qubikos",
			device: arch.RigettiAspen4,
			circ:   qubikosCircuit(5, 300, 9),
			opts:   sabre.Options{Trials: 4, Seed: 7},
			swaps:  48,
			print:  0x4136cecffddc96b2,
			decide: 3138,
			cands:  26757,
		},
		{
			name:   "sycamore54-qubikos",
			device: arch.GoogleSycamore54,
			circ:   qubikosCircuit(8, 500, 11),
			opts:   sabre.Options{Trials: 3, Seed: 13},
			swaps:  292,
			print:  0x82f5ec9a1caf0736,
			decide: 9609,
			cands:  227819,
		},
		{
			name:   "eagle127-qubikos",
			device: arch.IBMEagle127,
			circ:   qubikosCircuit(5, 600, 17),
			opts:   sabre.Options{Trials: 2, Seed: 21},
			swaps:  1137,
			print:  0xe0a1d41e296b6607,
			decide: 22027,
			cands:  361312,
		},
		{
			name:   "aspen4-decay-lookahead",
			device: arch.RigettiAspen4,
			circ:   qubikosCircuit(5, 300, 23),
			opts:   sabre.Options{Trials: 2, Seed: 5, LookaheadDecay: 0.7},
			swaps:  106,
			print:  0x6a7dbc2574dbf31b,
			decide: 2115,
			cands:  19195,
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
			r := sabre.New(gc.opts)
			res, err := router.RouteWithContext(context.Background(), r, c, dev)
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
			if c := r.Counters(); c.Decisions != gc.decide || c.Candidates != gc.cands || c.Restarts != int64(gc.opts.Trials) {
				t.Errorf("counters %+v, want %d decisions over %d candidates in %d restarts",
					c, gc.decide, gc.cands, gc.opts.Trials)
			}
		})
	}
}

// TestRouteAllocsFlatInTrials pins the acceptance criterion that the
// swap-decision loop allocates nothing in steady state: adding trials
// must never add per-decision garbage. (Trials now reuse their worker's
// RNG, placement, mapping and recording buffers, so an extra trial
// allocates no objects at all; TestRouteBytesFlatInTrials pins bytes.)
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

// TestRouteBytesFlatInTrials pins LightSABRE's memory flat in the trial
// count: a trial worker keeps only its best trial and records the next
// one into the loser's buffers, re-seeding one RNG and reusing its
// placement and mapping scratch, so 64 trials may allocate at most 1.5×
// what 4 trials do (keeping every trial's recorded pass read 10.9×). A
// zero-slot worker budget keeps Route on one worker.
func TestRouteBytesFlatInTrials(t *testing.T) {
	dev := arch.RigettiAspen4()
	p, err := router.Prepare(qubikosCircuit(5, 300, 1)(t, dev), dev)
	if err != nil {
		t.Fatal(err)
	}
	p.DAG() // built on first use; not part of the route
	p.ReversedDAG()
	routeBytes := func(trials int) uint64 {
		r := sabre.New(sabre.Options{Trials: trials})
		r.SetWorkerBudget(pool.NewBudget(0))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := r.Route(context.Background(), p, nil); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	few, many := routeBytes(4), routeBytes(64)
	if float64(many) > 1.5*float64(few) {
		t.Fatalf("64 trials allocated %d bytes, 4 trials %d (%.1f×), want at most 1.5×", many, few, float64(many)/float64(few))
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

// TestLowerBoundSkipMatchesFullScoring is the differential oracle of the
// extended-set lower bound. A no-op Trace turns the skip off (and runs
// one worker), so every candidate is scored in full; routing the same
// seeded circuit without a Trace must give the same fingerprint, SWAP
// count and work counters, whether the router searches a placement or
// routes from a pinned one (the case study reads its uniform-lookahead
// ablation line off a traced pinned pass). A bound that rose above a
// candidate's exact total, or that skipped a tie, would move a decision
// or the random stream. The decayed lookahead never skips; it is
// covered for the one-pass enumeration.
func TestLowerBoundSkipMatchesFullScoring(t *testing.T) {
	devices := []*arch.Device{
		arch.Line(6), arch.Ring(8), arch.Grid3x3(), arch.HeavyHex(2, 5), arch.IBMEagle127(),
	}
	for _, dev := range devices {
		t.Run(dev.Name(), func(t *testing.T) {
			for _, decay := range []float64{0, 0.5} {
				for seed := int64(1); seed <= 3; seed++ {
					nQ := dev.NumQubits()
					// Narrower circuits leave ancillas on the device.
					width := nQ - int(seed)%2
					p, err := router.Prepare(randomCircuit(width, min(8*nQ, 150), seed), dev)
					if err != nil {
						t.Fatal(err)
					}
					pinned := router.Mapping(rand.New(rand.NewSource(seed)).Perm(nQ)[:width])
					for _, initial := range []router.Mapping{nil, pinned} {
						opts := sabre.Options{Trials: 3, Seed: seed, LookaheadDecay: decay}
						skip := sabre.New(opts)
						got, err := skip.Route(context.Background(), p, initial)
						if err != nil {
							t.Fatal(err)
						}
						opts.Trace = func(sabre.TraceStep) {}
						full := sabre.New(opts)
						want, err := full.Route(context.Background(), p, initial)
						if err != nil {
							t.Fatal(err)
						}
						if got.SwapCount != want.SwapCount || fingerprint(got) != fingerprint(want) || skip.Counters() != full.Counters() {
							t.Errorf("%s decay %v seed %d initial %v: with the skip %d swaps, print %#x, %+v; scoring in full %d swaps, print %#x, %+v",
								dev.Name(), decay, seed, initial, got.SwapCount, fingerprint(got), skip.Counters(),
								want.SwapCount, fingerprint(want), full.Counters())
						}
					}
				}
			}
		})
	}
}
