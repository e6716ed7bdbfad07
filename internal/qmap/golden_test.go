package qmap_test

import (
	"context"
	"fmt"
	"hash/fnv"
	"runtime"
	"testing"

	"repro/internal/arch"
	"repro/internal/qmap"
	"repro/internal/qubikos"
	"repro/internal/router"
)

// goldenCase pins one routing instance: the expected swap count and a
// fingerprint over the initial mapping and the full transpiled gate
// stream. The expectations were recorded from the pre-optimization
// engine (pointer-based A* states, container/heap, map-backed closed
// set and touch lists, per-layer Zobrist tables); the allocation-free
// engine must reproduce them exactly on both the seeds-varied and
// placed-mapping paths. decisions, candidates and restarts pin the
// search effort as Counters reports it (node pops, deduplicated
// successors generated, layer searches), so an engine change that keeps
// the output but does different work also fails.
type goldenCase struct {
	name       string
	device     func() *arch.Device
	swaps      int
	gates      int
	seed       int64
	opts       qmap.Options
	placed     bool
	want       int
	print      uint64
	decisions  int64
	candidates int64
	restarts   int64
}

func goldenCases() []goldenCase {
	return []goldenCase{
		{name: "aspen4-route", device: arch.RigettiAspen4, swaps: 5, gates: 300, seed: 9,
			opts: qmap.Options{MaxNodes: 2000, Seed: 7}, want: 267, print: 0xccb0f0cd3c0d9a2c,
			decisions: 1223, candidates: 12927, restarts: 121},
		{name: "sycamore54-route", device: arch.GoogleSycamore54, swaps: 8, gates: 500, seed: 11,
			opts: qmap.Options{MaxNodes: 2000, Seed: 13}, want: 763, print: 0xbe38d4581bc57463,
			decisions: 9995, candidates: 428870, restarts: 143},
		{name: "eagle127-route", device: arch.IBMEagle127, swaps: 5, gates: 600, seed: 17,
			opts: qmap.Options{MaxNodes: 2000, Seed: 21}, want: 3013, print: 0xda984ccfa977f3c5,
			decisions: 53108, candidates: 1438477, restarts: 220},
		{name: "aspen4-truncated", device: arch.RigettiAspen4, swaps: 3, gates: 80, seed: 7,
			opts: qmap.Options{MaxNodes: 3, Seed: 7}, want: 85, print: 0xd0c90317290ccd23,
			decisions: 78, candidates: 692, restarts: 35},
		{name: "aspen4-placed", device: arch.RigettiAspen4, swaps: 5, gates: 300, seed: 9,
			opts: qmap.Options{MaxNodes: 2000, Seed: 7}, placed: true, want: 8, print: 0x419eba7b38760eb6,
			decisions: 16, candidates: 91, restarts: 121},
		{name: "eagle127-placed", device: arch.IBMEagle127, swaps: 5, gates: 600, seed: 17,
			opts: qmap.Options{MaxNodes: 2000, Seed: 21}, placed: true, want: 11, print: 0x24c13b1c50f37a19,
			decisions: 21, candidates: 54, restarts: 220},
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
			r := qmap.New(gc.opts)
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
			c := r.Counters()
			if c.Decisions != gc.decisions || c.Candidates != gc.candidates || c.Restarts != gc.restarts {
				t.Errorf("decisions/candidates/restarts = %d/%d/%d, want %d/%d/%d",
					c.Decisions, c.Candidates, c.Restarts, gc.decisions, gc.candidates, gc.restarts)
			}
		})
	}
}

// TestRouteBytesBounded guards the per-node footprint of the A* search.
// Routing the eagle127-route golden case once on a fresh Router
// allocated 18,103,040 bytes when every generated node got a 32-byte
// arena record, an 8-byte heap entry and a 16-byte closed-set slot, and
// 8,619,128 bytes with 8-byte successor records, arena records only for
// popped nodes and 9-byte closed-set slots (go1.24, linux/amd64). The
// bound is 60% of the former, so a per-node arena record coming back
// fails it.
func TestRouteBytesBounded(t *testing.T) {
	const bound = 18_103_040 * 6 / 10
	var gc goldenCase
	for _, c := range goldenCases() {
		if c.name == "eagle127-route" {
			gc = c
		}
	}
	dev := gc.device()
	b, err := qubikos.Generate(dev, qubikos.Options{
		NumSwaps: gc.swaps, TargetTwoQubitGates: gc.gates, Seed: gc.seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := router.Prepare(b.Circuit, dev)
	if err != nil {
		t.Fatal(err)
	}
	p.Layers() // built on first use; not part of the route
	r := qmap.New(gc.opts)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := r.Route(context.Background(), p, nil)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if res.SwapCount != gc.want {
		t.Fatalf("swaps=%d, want %d", res.SwapCount, gc.want)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > bound {
		t.Errorf("routing allocated %d bytes, want at most %d", got, bound)
	}
}
