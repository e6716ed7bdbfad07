package tket_test

import (
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/arch"
	"repro/internal/qubikos"
	"repro/internal/router"
	"repro/internal/tket"
)

// goldenCase pins one routing instance: the expected swap count and a
// fingerprint over the initial mapping and the full transpiled gate
// stream. The expectations were recorded from the pre-optimization
// engine (per-slice pending copies, map-based candidate dedup, full
// re-scored slices per candidate); the allocation-free engine must
// reproduce them exactly, which guards the hot-path rewrite against
// behavioural drift on both the seeds-varied and placed-mapping paths.
// The decision and candidate counts were recorded from the engine that
// rebuilt its decision state on every decision; pinning them makes
// "the same decisions over the same candidates" a checked property of
// the incremental engine, not just the same output.
type goldenCase struct {
	name   string
	device func() *arch.Device
	swaps  int   // benchmark's planted optimum
	gates  int   // padded two-qubit gate total
	seed   int64 // qubikos generation seed
	opts   tket.Options
	placed bool   // route via RouteFrom from the planted optimal mapping
	want   int    // expected SwapCount
	print  uint64 // FNV-1a fingerprint of mapping + gates
	decide int64  // expected Counters().Decisions
	cands  int64  // expected Counters().Candidates
}

func goldenCases() []goldenCase {
	return []goldenCase{
		{name: "aspen4-route", device: arch.RigettiAspen4, swaps: 5, gates: 300, seed: 9,
			opts: tket.Options{Seed: 7}, want: 206, print: 0xef86cabb47cc8da3, decide: 206, cands: 1234},
		{name: "sycamore54-route", device: arch.GoogleSycamore54, swaps: 8, gates: 500, seed: 11,
			opts: tket.Options{Seed: 13}, want: 722, print: 0x7a4d3acaa86217cf, decide: 722, cands: 11894},
		{name: "eagle127-route", device: arch.IBMEagle127, swaps: 5, gates: 600, seed: 17,
			opts: tket.Options{Seed: 21}, want: 2761, print: 0x6db4188bbc20603e, decide: 2713, cands: 35540},
		{name: "aspen4-placed", device: arch.RigettiAspen4, swaps: 5, gates: 300, seed: 9,
			opts: tket.Options{Seed: 7}, placed: true, want: 5, print: 0xa0fedd87312ab5f7, decide: 5, cands: 23},
		{name: "eagle127-placed", device: arch.IBMEagle127, swaps: 5, gates: 600, seed: 17,
			opts: tket.Options{Seed: 21}, placed: true, want: 5, print: 0x5c6d565818b13eea, decide: 5, cands: 21},
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

// TestGoldenCorpus routes the pinned-seed corpus and compares against
// the recorded pre-refactor expectations. Results are also re-validated
// independently, so a fingerprint match can't hide an invalid routing.
func TestGoldenCorpus(t *testing.T) {
	for _, gc := range goldenCases() {
		gc := gc
		t.Run(gc.name, func(t *testing.T) {
			dev := gc.device()
			b, err := qubikos.Generate(dev, qubikos.Options{
				NumSwaps: gc.swaps, TargetTwoQubitGates: gc.gates, Seed: gc.seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			r := tket.New(gc.opts)
			var res *router.Result
			if gc.placed {
				res, err = r.RouteFrom(b.Circuit, dev, b.InitialMapping)
			} else {
				res, err = r.Route(b.Circuit, dev)
			}
			if err != nil {
				t.Fatal(err)
			}
			if err := router.Validate(b.Circuit, dev, res); err != nil {
				t.Fatalf("result no longer validates: %v", err)
			}
			if res.SwapCount != gc.want || fingerprint(res) != gc.print {
				t.Errorf("swaps=%d print=%#x, pre-refactor engine produced swaps=%d print=%#x",
					res.SwapCount, fingerprint(res), gc.want, gc.print)
			}
			if c := r.Counters(); c.Decisions != gc.decide || c.Candidates != gc.cands || c.Restarts != 1 {
				t.Errorf("counters %+v, rebuild-per-decision engine made %d decisions over %d candidates in 1 restart",
					c, gc.decide, gc.cands)
			}
		})
	}
}
