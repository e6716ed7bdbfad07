// Micro-benchmarks of the substrates the paper's experiments run on:
// each router on one fixed instance (reporting its SWAP gap and its work
// per route), exact SAT verification, the device distance matrix and
// token swapping. CI runs every one once; qubikos-bench-diff gates the
// router and BenchmarkOlsqVerify rows against BENCH_routers.json. The
// paper's tables come from the commands that README's "Reproducing the
// paper's numbers" lists, not from these benchmarks.
//
//	go test -run xxx -bench . -benchmem
package repro_test

import (
	"context"
	"testing"

	"repro/internal/arch"
	"repro/internal/family"
	"repro/internal/graph"
	"repro/internal/mlqls"
	"repro/internal/olsq"
	"repro/internal/qmap"
	"repro/internal/qubikos"
	"repro/internal/router"
	"repro/internal/sabre"
	"repro/internal/sat"
	"repro/internal/tket"
	"repro/internal/tokenswap"
)

// benchSeed is the tool seed of every benchRoute iteration, so each
// iteration routes the same instance the same way and a -benchtime=1x
// run measures exactly what a longer run averages. It is the seed CI's
// one-iteration benchmark gate has always measured.
const benchSeed = 0

// benchRoute also reports the router's work per op: the swap decisions
// and candidate SWAPs of one route (every iteration does the same work),
// so ns/op over candidates/op reads as ns per candidate.
func benchRoute(b *testing.B, mk func(seed int64) router.Router, dev *arch.Device, n, gates int) {
	bench, err := qubikos.Generate(dev, qubikos.Options{
		NumSwaps: n, TargetTwoQubitGates: gates, Seed: 9,
	})
	if err != nil {
		b.Fatal(err)
	}
	var gap float64
	var work router.Counters
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := mk(benchSeed)
		res, err := router.RouteWithContext(context.Background(), r, bench.Circuit, dev)
		if err != nil {
			b.Fatal(err)
		}
		gap = family.Swaps.Ratio(res.SwapCount, bench.OptSwaps)
		if in, ok := r.(router.Instrumented); ok {
			work = in.Counters()
		}
	}
	b.ReportMetric(gap, "gap-x")
	b.ReportMetric(float64(work.Decisions), "decisions/op")
	b.ReportMetric(float64(work.Candidates), "candidates/op")
}

func BenchmarkRouteLightSabreAspen4(b *testing.B) {
	benchRoute(b, func(s int64) router.Router { return sabre.New(sabre.Options{Trials: 4, Seed: s}) },
		arch.RigettiAspen4(), 5, 300)
}

func BenchmarkRouteLightSabreEagle127(b *testing.B) {
	benchRoute(b, func(s int64) router.Router { return sabre.New(sabre.Options{Trials: 4, Seed: s}) },
		arch.IBMEagle127(), 5, 3000)
}

// BenchmarkTketRoute, BenchmarkQmapRoute and BenchmarkMlqlsRoute track
// the three non-SABRE routing hot paths at the small and large ends of
// the paper's device range (Aspen-4 at 300 gates, Eagle-127 at 3000);
// BenchmarkRouteLightSabreAspen4/Eagle127 track LightSABRE's.
// BENCH_routers.json at the repository root snapshots their numbers;
// compare fresh -benchmem runs against it to catch regressions.
func BenchmarkTketRoute(b *testing.B) {
	b.Run("aspen4", func(b *testing.B) {
		benchRoute(b, func(s int64) router.Router { return tket.New(tket.Options{Seed: s}) },
			arch.RigettiAspen4(), 5, 300)
	})
	b.Run("eagle127", func(b *testing.B) {
		benchRoute(b, func(s int64) router.Router { return tket.New(tket.Options{Seed: s}) },
			arch.IBMEagle127(), 20, 3000)
	})
}

func BenchmarkQmapRoute(b *testing.B) {
	b.Run("aspen4", func(b *testing.B) {
		benchRoute(b, func(s int64) router.Router { return qmap.New(qmap.Options{MaxNodes: 2000, Seed: s}) },
			arch.RigettiAspen4(), 5, 300)
	})
	b.Run("eagle127", func(b *testing.B) {
		benchRoute(b, func(s int64) router.Router { return qmap.New(qmap.Options{MaxNodes: 2000, Seed: s}) },
			arch.IBMEagle127(), 20, 3000)
	})
}

func BenchmarkMlqlsRoute(b *testing.B) {
	b.Run("aspen4", func(b *testing.B) {
		benchRoute(b, func(s int64) router.Router { return mlqls.New(mlqls.Options{Seed: s}) },
			arch.RigettiAspen4(), 5, 300)
	})
	b.Run("eagle127", func(b *testing.B) {
		benchRoute(b, func(s int64) router.Router { return mlqls.New(mlqls.Options{Seed: s}) },
			arch.IBMEagle127(), 20, 3000)
	})
}

func BenchmarkRouteMLQLSSycamore54(b *testing.B) {
	benchRoute(b, func(s int64) router.Router { return mlqls.New(mlqls.Options{Seed: s}) },
		arch.GoogleSycamore54(), 5, 1500)
}

func BenchmarkRouteTketSycamore54(b *testing.B) {
	benchRoute(b, func(s int64) router.Router { return tket.New(tket.Options{Seed: s}) },
		arch.GoogleSycamore54(), 5, 1500)
}

func BenchmarkRouteQmapSycamore54(b *testing.B) {
	benchRoute(b, func(s int64) router.Router { return qmap.New(qmap.Options{MaxNodes: 2000, Seed: s}) },
		arch.GoogleSycamore54(), 5, 1500)
}

// BenchmarkOlsqVerify measures the exact-verification engine (one
// persistent solver, grown encoding, assumption-selected bounds) on the
// paper's Section IV-A style instances: VerifyOptimal's UNSAT(n-1)+SAT(n)
// certificate and MinSwaps' full linear sweep. Run with -benchmem;
// docs/performance.md records the numbers, including the per-k
// re-encode baseline these rows were once compared against. Each row
// also reports the SAT search's conflicts/op and propagations/op, which
// are exact for a given encoding and solver, so a change in the search
// shows there on any host.
func BenchmarkOlsqVerify(b *testing.B) {
	verify, err := qubikos.Generate(arch.Grid3x3(), qubikos.Options{
		NumSwaps: 2, MaxTwoQubitGates: 30, TargetTwoQubitGates: 30, PreferHighDegree: true, Seed: 5,
	})
	if err != nil {
		b.Fatal(err)
	}
	sweep, err := qubikos.Generate(arch.RigettiAspen4(), qubikos.Options{
		NumSwaps: 3, MaxTwoQubitGates: 30, TargetTwoQubitGates: 30, PreferHighDegree: true, Seed: 100007,
	})
	if err != nil {
		b.Fatal(err)
	}
	reportSearch := func(b *testing.B, st sat.Stats) {
		b.ReportMetric(float64(st.Conflicts), "conflicts/op")
		b.ReportMetric(float64(st.Propagations), "propagations/op")
	}
	b.Run("verify-optimal/incremental", func(b *testing.B) {
		var st sat.Stats
		for i := 0; i < b.N; i++ {
			s, err := olsq.New(verify.Circuit, verify.Device, olsq.Options{})
			if err != nil {
				b.Fatal(err)
			}
			if err := s.VerifyOptimalCtx(context.Background(), verify.OptSwaps); err != nil {
				b.Fatal(err)
			}
			st = s.SolverStats()
		}
		reportSearch(b, st)
	})
	b.Run("min-swaps/incremental", func(b *testing.B) {
		var st sat.Stats
		for i := 0; i < b.N; i++ {
			s, err := olsq.New(sweep.Circuit, sweep.Device, olsq.Options{})
			if err != nil {
				b.Fatal(err)
			}
			res, err := s.MinSwapsCtx(context.Background(), sweep.OptSwaps+3)
			if err != nil {
				b.Fatal(err)
			}
			if res.SwapCount != sweep.OptSwaps {
				b.Fatalf("MinSwaps=%d want %d", res.SwapCount, sweep.OptSwaps)
			}
			st = s.SolverStats()
		}
		reportSearch(b, st)
	})
}

func BenchmarkDistanceMatrixEagle127(b *testing.B) {
	g := arch.IBMEagle127().Graph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = graph.NewDistanceMatrix(g)
	}
}

// BenchmarkTokenSwap measures the token-swapping transition engine on a
// full-device permutation.
func BenchmarkTokenSwap(b *testing.B) {
	dev := arch.IBMEagle127()
	g, dist := dev.Graph(), dev.Distances()
	perm := make([]int, g.N())
	for i := range perm {
		perm[i] = (i*53 + 17) % g.N() // fixed full-support permutation
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tokenswap.SolveDist(g, dist, perm); err != nil {
			b.Fatal(err)
		}
	}
}
