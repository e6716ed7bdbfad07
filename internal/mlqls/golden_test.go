package mlqls_test

import (
	"context"
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/arch"
	"repro/internal/mlqls"
	"repro/internal/qubikos"
	"repro/internal/router"
)

// goldenCase pins one routing instance: the expected swap count and a
// fingerprint over the initial mapping and the full transpiled gate
// stream. The expectations were recorded from the pre-optimization
// engine (map-backed weighted interaction graphs throughout the
// multilevel hierarchy); the flat-graph engine must reproduce them
// exactly on both the seeds-varied and placed-mapping paths.
type goldenCase struct {
	name   string
	device func() *arch.Device
	swaps  int
	gates  int
	seed   int64
	opts   mlqls.Options
	placed bool
	want   int
	print  uint64
}

func goldenCases() []goldenCase {
	return []goldenCase{
		{name: "aspen4-route", device: arch.RigettiAspen4, swaps: 5, gates: 300, seed: 9,
			opts: mlqls.Options{Seed: 7}, want: 190, print: 0x8f3e49c628a783b9},
		{name: "sycamore54-route", device: arch.GoogleSycamore54, swaps: 8, gates: 500, seed: 11,
			opts: mlqls.Options{Seed: 13}, want: 535, print: 0x8534909df9fc6559},
		{name: "eagle127-route", device: arch.IBMEagle127, swaps: 5, gates: 600, seed: 17,
			opts: mlqls.Options{Seed: 21}, want: 2771, print: 0xb0601cb13eb9f45e},
		{name: "aspen4-placed", device: arch.RigettiAspen4, swaps: 5, gates: 300, seed: 9,
			opts: mlqls.Options{Seed: 7}, placed: true, want: 5, print: 0xf99dc136b483597b},
		{name: "eagle127-placed", device: arch.IBMEagle127, swaps: 5, gates: 600, seed: 17,
			opts: mlqls.Options{Seed: 21}, placed: true, want: 5, print: 0xcaeea1c0bb235845},
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
			r := mlqls.New(gc.opts)
			var initial router.Mapping
			if gc.placed {
				initial = b.InitialMapping
			}
			p, err := router.Prepare(b.Circuit, dev)
			if err != nil {
				t.Fatal(err)
			}
			res, err := r.Route(context.Background(), p, initial)
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
		})
	}
}
