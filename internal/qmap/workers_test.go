package qmap_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/arch"
	"repro/internal/pool"
	"repro/internal/qmap"
	"repro/internal/qubikos"
	"repro/internal/router"
)

// TestGoldenCorpusWorkerInvariant re-runs the pinned golden corpus at
// worker counts {1, 4, NumCPU} and demands the exact recorded swap
// counts and result fingerprints at every count: the parallel expansion
// evaluates waves in canonical order and merges on a single reducer, so
// heap contents, closed-set decisions, and tie-breaks are bit-identical
// to the serial engine. Run under -race in CI, this is also the data
// race coverage of the wave partitioning.
func TestGoldenCorpusWorkerInvariant(t *testing.T) {
	counts := []int{1, 4, runtime.NumCPU()}
	for _, gc := range goldenCases() {
		gc := gc
		for _, w := range counts {
			opts := gc.opts
			opts.Workers = w
			t.Run(fmt.Sprintf("%s/workers=%d", gc.name, w), func(t *testing.T) {
				dev := gc.device()
				b, err := qubikos.Generate(dev, qubikos.Options{
					NumSwaps: gc.swaps, TargetTwoQubitGates: gc.gates, Seed: gc.seed,
				})
				if err != nil {
					t.Fatal(err)
				}
				r := qmap.New(opts)
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
				if res.SwapCount != gc.want || fingerprint(res) != gc.print {
					t.Errorf("workers=%d: swaps=%d print=%#x, want swaps=%d print=%#x",
						w, res.SwapCount, fingerprint(res), gc.want, gc.print)
				}
			})
		}
	}
}

// TestWorkerBudgetInvariant pins the shared-budget seam: a router that
// borrows expansion workers from a pool.Budget must produce the exact
// serial result whether the budget lends everything, something, or
// nothing — and must return every borrowed slot.
func TestWorkerBudgetInvariant(t *testing.T) {
	dev := arch.RigettiAspen4()
	b, err := qubikos.Generate(dev, qubikos.Options{
		NumSwaps: 5, TargetTwoQubitGates: 300, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	opts := qmap.Options{MaxNodes: 2000, Seed: 7}
	ref, err := router.RouteWithContext(context.Background(), qmap.New(opts), b.Circuit, dev)
	if err != nil {
		t.Fatal(err)
	}
	for _, slots := range []int{0, 1, 8} {
		opts := opts
		opts.Workers = 4
		r := qmap.New(opts)
		budget := pool.NewBudget(slots)
		r.SetWorkerBudget(budget)
		res, err := router.RouteWithContext(context.Background(), r, b.Circuit, dev)
		if err != nil {
			t.Fatal(err)
		}
		if res.SwapCount != ref.SwapCount || fingerprint(res) != fingerprint(ref) {
			t.Errorf("budget=%d slots: result diverged from serial engine", slots)
		}
		if got := budget.Idle(); got != slots {
			t.Errorf("budget=%d slots: %d idle after Route, borrowed slots leaked", slots, got)
		}
	}
}
