// Benchmarks regenerating the tables and figures of the paper's
// evaluation section (README's "Reproducing the paper's numbers" lists
// the command behind each). Each benchmark runs a reduced-scale version
// of its experiment per iteration and reports the headline quantity
// (mean optimality gap, verification count) as a custom metric; scale
// constants up via the qubikos-eval and qubikos-verify commands for
// paper-scale runs.
//
//	go test -bench=. -benchmem
package repro_test

import (
	"context"
	"path/filepath"
	"testing"

	"repro/internal/arch"
	"repro/internal/family"
	"repro/internal/graph"
	"repro/internal/harness"
	"repro/internal/mlqls"
	"repro/internal/olsq"
	"repro/internal/qmap"
	"repro/internal/qubikos"
	"repro/internal/router"
	"repro/internal/sabre"
	"repro/internal/sat"
	"repro/internal/suite"
	"repro/internal/tket"
	"repro/internal/tokenswap"
)

// benchStore opens a temporary suite store and ensures each suite once,
// so a timed iteration pays for evaluation only.
func benchStore(b *testing.B, cfgs ...harness.SuiteConfig) (*suite.Store, []*suite.Suite) {
	b.Helper()
	store, err := suite.Open(b.TempDir(), suite.StoreOptions{})
	if err != nil {
		b.Fatal(err)
	}
	var sts []*suite.Suite
	for _, cfg := range cfgs {
		st, err := store.EnsureCtx(context.Background(), cfg.Manifest())
		if err != nil {
			b.Fatal(err)
		}
		sts = append(sts, st)
	}
	return store, sts
}

// benchEval evaluates a stored suite into a fresh eval log, so the
// iteration re-routes every cell instead of resuming a finished log.
func benchEval(b *testing.B, store *suite.Store, st *suite.Suite, tools []harness.ToolSpec, seed int64) *harness.Figure {
	b.Helper()
	fig, err := harness.RunStoredEvalCtx(context.Background(), store, st, tools, harness.StoredEvalOptions{
		Seed:    seed,
		LogPath: filepath.Join(b.TempDir(), "eval.jsonl"),
	})
	if err != nil {
		b.Fatal(err)
	}
	return fig
}

// benchFigure runs one reduced Figure 4 subplot per iteration.
func benchFigure(b *testing.B, dev *arch.Device, gates int) {
	cfg := harness.SuiteConfig{
		Device:              dev,
		SwapCounts:          []int{5, 10},
		CircuitsPerCount:    1,
		TargetTwoQubitGates: gates,
		Seed:                1,
	}
	store, sts := benchStore(b, cfg)
	tools := harness.DefaultTools(4)
	var lastGap float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fig := benchEval(b, store, sts[0], tools, cfg.Seed)
		gaps := harness.AbstractGaps([]*harness.Figure{fig})
		for _, g := range gaps {
			if g.Tool == "lightsabre" {
				lastGap = g.MeanRatio
			}
		}
	}
	b.ReportMetric(lastGap, "sabre-gap-x")
}

// BenchmarkFigure4a regenerates Figure 4(a): Rigetti Aspen-4, N=300.
func BenchmarkFigure4a(b *testing.B) { benchFigure(b, arch.RigettiAspen4(), 300) }

// BenchmarkFigure4b regenerates Figure 4(b): Google Sycamore, N=1500.
func BenchmarkFigure4b(b *testing.B) { benchFigure(b, arch.GoogleSycamore54(), 1500) }

// BenchmarkFigure4c regenerates Figure 4(c): IBM Rochester, N=1500.
func BenchmarkFigure4c(b *testing.B) { benchFigure(b, arch.IBMRochester53(), 1500) }

// BenchmarkFigure4d regenerates Figure 4(d): IBM Eagle, N=3000.
func BenchmarkFigure4d(b *testing.B) { benchFigure(b, arch.IBMEagle127(), 3000) }

// BenchmarkOptimalityStudy regenerates the Section IV-A table: exact SAT
// certification of generated instances on Aspen-4 and the 3x3 grid.
func BenchmarkOptimalityStudy(b *testing.B) {
	cfg := harness.DefaultOptimalityConfig(1, 7)
	cfg.SwapCounts = []int{1, 2, 3}
	verified := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := harness.RunOptimalityStudyCtx(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		verified = 0
		for _, r := range rows {
			if r.Deviation != 0 {
				b.Fatalf("%s n=%d deviated", r.Device, r.Optimal)
			}
			verified += r.Verified
		}
	}
	b.ReportMetric(float64(verified), "verified")
}

// BenchmarkAbstractGaps regenerates the abstract's per-tool averages over
// two reduced subplots.
func BenchmarkAbstractGaps(b *testing.B) {
	cfgs := []harness.SuiteConfig{
		{Device: arch.RigettiAspen4(), SwapCounts: []int{5, 10}, CircuitsPerCount: 1, TargetTwoQubitGates: 300, Seed: 1},
		{Device: arch.IBMRochester53(), SwapCounts: []int{5, 10}, CircuitsPerCount: 1, TargetTwoQubitGates: 1500, Seed: 1},
	}
	store, sts := benchStore(b, cfgs...)
	tools := harness.DefaultTools(4)
	var best float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var figs []*harness.Figure
		for j, st := range sts {
			figs = append(figs, benchEval(b, store, st, tools, cfgs[j].Seed))
		}
		gaps := harness.AbstractGaps(figs)
		best = gaps[0].MeanRatio
		for _, g := range gaps {
			if g.MeanRatio < best {
				best = g.MeanRatio
			}
		}
	}
	b.ReportMetric(best, "best-tool-gap-x")
}

// BenchmarkCaseStudy regenerates the Section IV-C experiment: SABRE from
// the optimal mapping plus the lookahead-decay ablation.
func BenchmarkCaseStudy(b *testing.B) {
	var sub float64
	for i := 0; i < b.N; i++ {
		res, err := harness.RunCaseStudy(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		sub = float64(res.Suboptimal)
	}
	b.ReportMetric(sub, "suboptimal")
}

// --- micro-benchmarks of the substrates ------------------------------

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
