// Package harness drives the paper's experiments: it obtains benchmark
// suites with deterministic seeds from any registered family, runs the
// four QLS tools, aggregates per-metric ratio statistics (SWAP ratio
// for qubikos suites, routed-depth ratio for depth suites), and renders
// the tables behind every figure in the evaluation section (Figure 4
// a-d, the Section IV-A optimality study, the abstract's per-tool
// averages, and the Section IV-C case study). Every rendered row is
// labeled with the metric it scores, so mixed-family tables stay
// unambiguous.
//
// Suites come from either of two paths. RunFigureCtx generates inline —
// the historical one-shot mode. RunStoredEvalCtx fans the tools over a
// suite held in a content-addressed suite.Store, streaming per-instance
// rows into a resumable JSONL log; the store guarantees repeated
// evaluations of the same recipe reuse bit-identical benchmarks without
// regenerating. Both paths route every (tool, instance) pair through
// the same router.Guard and aggregate into the same Cell shape, and a
// golden test pins them to identical figures.
package harness

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/family"
	"repro/internal/mlqls"
	"repro/internal/obs"
	"repro/internal/olsq"
	"repro/internal/pool"
	"repro/internal/qmap"
	"repro/internal/qubikos"
	"repro/internal/router"
	"repro/internal/sabre"
	"repro/internal/suite"
	"repro/internal/tket"
)

// ToolSpec names a QLS tool and builds a fresh instance per run.
type ToolSpec struct {
	Name string
	Make func(seed int64) router.Router
}

// DefaultTools returns the paper's four tools in its reporting order.
// sabreTrials controls LightSABRE's random-restart budget (the paper uses
// 1000; CI-scale runs use far fewer).
func DefaultTools(sabreTrials int) []ToolSpec {
	return []ToolSpec{
		{"lightsabre", func(seed int64) router.Router {
			return sabre.New(sabre.Options{Trials: sabreTrials, Seed: seed})
		}},
		{"ml-qls", func(seed int64) router.Router {
			return mlqls.New(mlqls.Options{Seed: seed})
		}},
		{"qmap", func(seed int64) router.Router {
			// Workers caps qmap's deterministic parallel expansion; under a
			// harness budget the cap only applies to slots actually idle.
			return qmap.New(qmap.Options{MaxNodes: 2000, Seed: seed, Workers: runtime.GOMAXPROCS(0)})
		}},
		{"tket", func(seed int64) router.Router {
			return tket.New(tket.Options{Seed: seed})
		}},
	}
}

// ToolNames returns the registered tool names in reporting order.
func ToolNames() []string {
	specs := DefaultTools(1)
	names := make([]string, len(specs))
	for i, t := range specs {
		names[i] = t.Name
	}
	return names
}

// SelectTools resolves a comma-separated tool list (empty = every
// registered tool) against the registry. Unknown names are an error
// naming the registered tools — never silently skipped — so a typo in a
// -tools flag or an HTTP tools parameter fails fast instead of quietly
// evaluating a smaller tool set.
func SelectTools(list string, sabreTrials int) ([]ToolSpec, error) {
	all := DefaultTools(sabreTrials)
	if strings.TrimSpace(list) == "" {
		return all, nil
	}
	byName := map[string]ToolSpec{}
	for _, t := range all {
		byName[t.Name] = t
	}
	var out []ToolSpec
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		t, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("harness: unknown tool %q (registered: %s)",
				name, strings.Join(ToolNames(), ", "))
		}
		out = append(out, t)
	}
	return out, nil
}

// SuiteConfig describes one Figure-4 style suite: a benchmark family, a
// device, the sweep of known-optimal metric values, circuits per value,
// and the padded gate total.
type SuiteConfig struct {
	Device *arch.Device
	// Family is the registered benchmark family ID; empty selects the
	// paper's qubikos swap-optimal family.
	Family string
	// SwapCounts is the grid of known-optimal metric values: optimal SWAP
	// counts for swap-metric families, optimal routed depths for
	// depth-metric ones (the name predates the family registry).
	SwapCounts          []int
	CircuitsPerCount    int
	TargetTwoQubitGates int
	Seed                int64
	// Verify runs the structural verifier on every generated benchmark.
	Verify bool
}

// FamilyID resolves the configured family, defaulting to qubikos.
func (cfg SuiteConfig) FamilyID() string {
	if cfg.Family == "" {
		return suite.GeneratorID
	}
	return cfg.Family
}

// PaperSuites returns the four Figure-4 configurations with the paper's
// gate totals (300 / 1500 / 1500 / 3000), scaled by circuitsPer count.
func PaperSuites(circuitsPer int, seed int64) []SuiteConfig {
	mk := func(dev *arch.Device, gates int) SuiteConfig {
		return SuiteConfig{
			Device:              dev,
			SwapCounts:          []int{5, 10, 15, 20},
			CircuitsPerCount:    circuitsPer,
			TargetTwoQubitGates: gates,
			Seed:                seed,
			Verify:              true,
		}
	}
	return []SuiteConfig{
		mk(arch.RigettiAspen4(), 300),
		mk(arch.GoogleSycamore54(), 1500),
		mk(arch.IBMRochester53(), 1500),
		mk(arch.IBMEagle127(), 3000),
	}
}

// GenerateSuite builds the benchmarks of a suite, deterministic in the
// configured seed.
func GenerateSuite(cfg SuiteConfig) ([]*qubikos.Benchmark, error) {
	var out []*qubikos.Benchmark
	for _, n := range cfg.SwapCounts {
		for i := 0; i < cfg.CircuitsPerCount; i++ {
			b, err := qubikos.Generate(cfg.Device, qubikos.Options{
				NumSwaps:            n,
				TargetTwoQubitGates: cfg.TargetTwoQubitGates,
				Seed:                cfg.Seed + int64(n)*1_000_000 + int64(i),
			})
			if err != nil {
				return nil, fmt.Errorf("harness: generate %s n=%d i=%d: %w", cfg.Device.Name(), n, i, err)
			}
			if cfg.Verify {
				if err := qubikos.Verify(b); err != nil {
					return nil, fmt.Errorf("harness: verify %s n=%d i=%d: %w", cfg.Device.Name(), n, i, err)
				}
			}
			out = append(out, b)
		}
	}
	return out, nil
}

// Cell aggregates one (tool, optimal-metric-value) cell of a Figure-4
// style plot. Metric labels what Optimal and the ratios score, so tables
// mixing families stay unambiguous.
type Cell struct {
	Tool      string  `json:"tool"`
	Metric    string  `json:"metric"`
	Optimal   int     `json:"optimal"`
	Circuits  int     `json:"circuits"`
	MeanSwaps float64 `json:"mean_swaps"`
	MeanDepth float64 `json:"mean_depth"`
	MeanRatio float64 `json:"mean_ratio"` // the optimality gap: avg(achieved)/optimal
	MinRatio  float64 `json:"min_ratio"`
	MaxRatio  float64 `json:"max_ratio"`
	Failures  int     `json:"failures"`
}

// Figure is the material behind one Figure 4 subplot.
type Figure struct {
	Device string `json:"device"`
	Metric string `json:"metric"`
	Gates  int    `json:"gates"`
	Cells  []Cell `json:"cells"`
}

// EvalItem is one benchmark to evaluate, decoupled from how it was
// produced: inline generation, a stored suite, or a parsed file all
// reduce to a circuit on a device with a proven optimum of some metric.
type EvalItem struct {
	// ID names the item in logs and errors (an instance base name).
	ID      string
	Device  *arch.Device
	Circuit *circuit.Circuit
	// Metric is the scored metric (zero value scores swaps).
	Metric family.Metric
	// Optimal is the proven optimal value of Metric.
	Optimal int

	// prep is the shared routing context (padded circuit, skeleton,
	// DAGs, layers), built once per instance by the eval paths and
	// handed read-only to every tool. nil means routeOne prepares the
	// item itself.
	prep *router.Prepared
}

// prepare builds the item's shared routing context. A context that
// cannot be built (circuit wider than the device) is left nil: routeOne
// then turns the Prepare error into a failure row for every tool.
func (it *EvalItem) prepare() {
	if it.prep != nil {
		return
	}
	if p, err := router.Prepare(it.Circuit, it.Device); err == nil {
		it.prep = p
	}
}

// Items converts generated qubikos benchmarks into evaluation items.
func Items(benchmarks []*qubikos.Benchmark) []EvalItem {
	items := make([]EvalItem, len(benchmarks))
	for i, b := range benchmarks {
		items[i] = EvalItem{
			ID:      fmt.Sprintf("bench_%03d", i),
			Device:  b.Device,
			Circuit: b.Circuit,
			Metric:  family.Swaps,
			Optimal: b.OptSwaps,
		}
	}
	return items
}

// GenerateItems builds the configuration's benchmarks through the family
// registry, deterministic in the configured seed: exactly the instances
// (and bytes) a suite.Store would generate from cfg.Manifest().
func GenerateItems(cfg SuiteConfig) ([]EvalItem, error) {
	m := cfg.Manifest()
	fam, err := m.Family()
	if err != nil {
		return nil, err
	}
	var items []EvalItem
	for _, ref := range m.InstanceRefs() {
		inst, err := fam.Generate(cfg.Device, m.Options(ref.Optimal, ref.Index))
		if err != nil {
			return nil, fmt.Errorf("harness: generate %s %s: %w", cfg.Device.Name(), ref.Base, err)
		}
		if cfg.Verify {
			if err := inst.Verify(); err != nil {
				return nil, fmt.Errorf("harness: verify %s %s: %w", cfg.Device.Name(), ref.Base, err)
			}
		}
		items = append(items, EvalItem{
			ID:      ref.Base,
			Device:  cfg.Device,
			Circuit: inst.Circuit,
			Metric:  fam.Metric,
			Optimal: inst.Optimal,
		})
	}
	return items, nil
}

// RunFigureCtx generates the suite inline and evaluates it under a
// cancellation context and an explicit evaluation config: every
// (tool, instance) routing attempt runs fault-isolated under
// ec.ToolTimeout, and a cancelled run returns the cancellation cause,
// never a partial figure. Production runs should generate through a
// suite.Store and use RunStoredEvalCtx so repeated evaluations never
// regenerate.
func RunFigureCtx(ctx context.Context, cfg SuiteConfig, tools []ToolSpec, ec EvalConfig) (*Figure, error) {
	m := cfg.Manifest()
	items, err := GenerateItems(cfg)
	if err != nil {
		return nil, err
	}
	fig := &Figure{
		Device: cfg.Device.Name(),
		Metric: string(m.Metric()),
		Gates:  cfg.TargetTwoQubitGates,
	}
	fig.Cells, err = EvaluateItemsCtx(ctx, m.Metric(), items, m.Grid(), tools, ec)
	if err != nil {
		return nil, err
	}
	return fig, nil
}

// EvaluateItemsCtx runs every tool over every item and aggregates per
// grid value of the scored metric, in tool order then grid order. Each
// (tool, instance) pair routes through router.Guard bounded by
// ec.ToolTimeout: a tool that times out, fails, or panics becomes a cell
// failure while the rest of the sweep completes; cancelling ctx aborts
// the whole sweep with its cause. Every result is audited with
// router.Validate and checked against the optimality lower bound;
// violations are returned as errors because they would falsify the
// benchmark's guarantee.
func EvaluateItemsCtx(ctx context.Context, metric family.Metric, items []EvalItem, grid []int, tools []ToolSpec, ec EvalConfig) ([]Cell, error) {
	for _, it := range items {
		if it.Optimal <= 0 {
			return nil, fmt.Errorf("harness: instance %s has no positive optimal %s to score (got %d)",
				it.ID, metric, it.Optimal)
		}
	}
	// Build each instance's routing context once; every tool in the loop
	// below shares it instead of re-padding, re-skeletonizing, and
	// re-building DAGs per (tool, instance) pair.
	for i := range items {
		items[i].prepare()
	}
	// One shared worker budget for the whole sweep: this loop routes one
	// (tool, instance) pair at a time, so it reserves a single slot and
	// budgeted routers borrow the rest of the machine while idle.
	budget := sweepBudget(ec.Workers, 1)
	var cells []Cell
	for _, tool := range tools {
		for _, n := range grid {
			cell := Cell{Tool: tool.Name, Metric: string(metric), Optimal: n, MinRatio: -1}
			for _, it := range items {
				if it.Optimal != n {
					continue
				}
				res, _, err := routeOne(ctx, tool, it, ec.Seed, ec.ToolTimeout, budget)
				if err != nil {
					return nil, err
				}
				if res == nil {
					cell.Failures++
					continue
				}
				ratio := metric.Ratio(metric.Achieved(res), it.Optimal)
				cell.Circuits++
				cell.MeanSwaps += float64(res.SwapCount)
				cell.MeanDepth += float64(res.RoutedDepth())
				cell.MeanRatio += ratio
				if cell.MinRatio < 0 || ratio < cell.MinRatio {
					cell.MinRatio = ratio
				}
				if ratio > cell.MaxRatio {
					cell.MaxRatio = ratio
				}
			}
			if cell.Circuits > 0 {
				cell.MeanSwaps /= float64(cell.Circuits)
				cell.MeanDepth /= float64(cell.Circuits)
				cell.MeanRatio /= float64(cell.Circuits)
			}
			cells = append(cells, cell)
		}
	}
	return cells, nil
}

// ToolAverage is one row of the abstract's summary (63x / 117x / 250x /
// 330x in the paper).
type ToolAverage struct {
	Tool      string
	MeanRatio float64
	Cells     int
}

// AbstractGaps averages the per-cell mean ratios of several figures per
// tool, reproducing the abstract's headline numbers.
func AbstractGaps(figs []*Figure) []ToolAverage {
	acc := map[string]*ToolAverage{}
	var order []string
	for _, f := range figs {
		for _, c := range f.Cells {
			if c.Circuits == 0 {
				continue
			}
			ta, ok := acc[c.Tool]
			if !ok {
				ta = &ToolAverage{Tool: c.Tool}
				acc[c.Tool] = ta
				order = append(order, c.Tool)
			}
			ta.MeanRatio += c.MeanRatio
			ta.Cells++
		}
	}
	out := make([]ToolAverage, 0, len(acc))
	for _, name := range order {
		ta := acc[name]
		if ta.Cells > 0 {
			ta.MeanRatio /= float64(ta.Cells)
		}
		out = append(out, *ta)
	}
	return out
}

// DeviceAverage reports the best tool's mean gap per device — the paper's
// "the gap grows from 1x to 233.97x with architecture size" observation
// and the Rochester-vs-Sycamore structure comparison.
type DeviceAverage struct {
	Device    string
	BestTool  string
	BestRatio float64
}

// DeviceGaps extracts the best-tool average per figure.
func DeviceGaps(figs []*Figure) []DeviceAverage {
	var out []DeviceAverage
	for _, f := range figs {
		per := map[string]struct {
			sum float64
			n   int
		}{}
		for _, c := range f.Cells {
			if c.Circuits == 0 {
				continue
			}
			e := per[c.Tool]
			e.sum += c.MeanRatio
			e.n++
			per[c.Tool] = e
		}
		best, bestRatio := "", 0.0
		names := make([]string, 0, len(per))
		for name := range per {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			e := per[name]
			avg := e.sum / float64(e.n)
			if best == "" || avg < bestRatio {
				best, bestRatio = name, avg
			}
		}
		out = append(out, DeviceAverage{Device: f.Device, BestTool: best, BestRatio: bestRatio})
	}
	return out
}

// RenderFigure prints the figure as an aligned text table (the repository
// equivalent of one Figure 4 subplot). Each row is labeled with the
// metric its optimum and gap columns score, so tables concatenated
// across families stay unambiguous.
func RenderFigure(w io.Writer, f *Figure) {
	fmt.Fprintf(w, "Figure: %s (target %d two-qubit gates)\n", f.Device, f.Gates)
	fmt.Fprintf(w, "%-14s %-7s %8s %9s %11s %11s %10s %10s %9s\n",
		"tool", "metric", "optimum", "circuits", "mean-swaps", "mean-depth", "mean-gap", "min-gap", "max-gap")
	for _, c := range f.Cells {
		fmt.Fprintf(w, "%-14s %-7s %8d %9d %11.1f %11.1f %9.2fx %9.2fx %8.2fx\n",
			c.Tool, cellMetric(c), c.Optimal, c.Circuits, c.MeanSwaps, c.MeanDepth, c.MeanRatio, c.MinRatio, c.MaxRatio)
	}
}

// RenderFigureCSV emits the figure as CSV for external plotting; like
// the text table, every row carries its scored metric.
func RenderFigureCSV(w io.Writer, f *Figure) {
	fmt.Fprintln(w, "device,tool,metric,optimal,circuits,mean_swaps,mean_depth,mean_ratio,min_ratio,max_ratio,failures")
	for _, c := range f.Cells {
		fmt.Fprintf(w, "%s,%s,%s,%d,%d,%.3f,%.3f,%.3f,%.3f,%.3f,%d\n",
			f.Device, c.Tool, cellMetric(c), c.Optimal, c.Circuits, c.MeanSwaps, c.MeanDepth,
			c.MeanRatio, c.MinRatio, c.MaxRatio, c.Failures)
	}
}

// cellMetric resolves a cell's metric label, defaulting pre-registry
// cells to swaps.
func cellMetric(c Cell) string {
	if c.Metric == "" {
		return string(family.Swaps)
	}
	return c.Metric
}

// RenderAbstract prints the abstract-style per-tool averages.
func RenderAbstract(w io.Writer, gaps []ToolAverage) {
	fmt.Fprintln(w, "Average optimality gap per tool (paper abstract analogue):")
	for _, g := range gaps {
		fmt.Fprintf(w, "  %-14s %9.2fx  (over %d cells)\n", g.Tool, g.MeanRatio, g.Cells)
	}
}

// --- Section IV-A optimality study -----------------------------------

// OptimalityConfig mirrors the paper's exact-verification experiment:
// small devices, SWAP counts 1-4, a 30 two-qubit-gate budget, exact SAT
// checks of every instance.
type OptimalityConfig struct {
	Devices          []*arch.Device
	SwapCounts       []int
	CircuitsPerCount int
	MaxTwoQubitGates int
	Seed             int64
	// Workers bounds the certification worker pool; 0 means GOMAXPROCS.
	// Each instance gets its own SAT solver, so results are identical for
	// any worker count (the instance seeds are fixed up front).
	Workers int
}

// DefaultOptimalityConfig returns the paper's Section IV-A setting with a
// configurable instance count (the paper uses 100 per count).
func DefaultOptimalityConfig(circuitsPer int, seed int64) OptimalityConfig {
	return OptimalityConfig{
		Devices:          []*arch.Device{arch.RigettiAspen4(), arch.Grid3x3()},
		SwapCounts:       []int{1, 2, 3, 4},
		CircuitsPerCount: circuitsPer,
		MaxTwoQubitGates: 30,
		Seed:             seed,
	}
}

// OptimalityRow is one (device, swap-count) row of the study.
type OptimalityRow struct {
	Device    string
	OptSwaps  int
	Circuits  int
	Verified  int
	Deviation int // instances whose exact optimum differed (must be 0)
}

// RunOptimalityStudyCtx generates capped instances and certifies each
// with the exact SAT solver: UNSAT at n-1 and SAT at n. Instances are
// independent — every one carries its own deterministic seed and its own
// persistent incremental solver — so certification fans out over a
// bounded worker pool (cfg.Workers, defaulting to GOMAXPROCS) and the
// aggregated rows are identical for any worker count. The context's
// deadline propagates into every SAT search (alongside any conflict
// budget) and into the pool's dispatch loop, so an abandoned study stops
// certifying promptly; a cancelled study returns the cancellation
// cause, never a partial table.
func RunOptimalityStudyCtx(ctx context.Context, cfg OptimalityConfig) ([]OptimalityRow, error) {
	type job struct {
		dev *arch.Device
		n   int
		i   int
		row int
	}
	type outcome struct {
		verified bool
		err      error
	}
	var jobs []job
	var rows []OptimalityRow
	for _, dev := range cfg.Devices {
		for _, n := range cfg.SwapCounts {
			rows = append(rows, OptimalityRow{Device: dev.Name(), OptSwaps: n})
			for i := 0; i < cfg.CircuitsPerCount; i++ {
				jobs = append(jobs, job{dev: dev, n: n, i: i, row: len(rows) - 1})
			}
		}
	}

	run := func(j job) outcome {
		sp, ctx := obs.Begin(ctx, "verify", "instance")
		defer sp.End()
		sp.Arg("device", j.dev.Name())
		sp.ArgInt("optimal", int64(j.n))
		b, err := qubikos.Generate(j.dev, qubikos.Options{
			NumSwaps:            j.n,
			MaxTwoQubitGates:    cfg.MaxTwoQubitGates,
			TargetTwoQubitGates: cfg.MaxTwoQubitGates,
			PreferHighDegree:    true,
			Seed:                cfg.Seed + int64(j.n)*100_000 + int64(j.i),
		})
		if err != nil {
			return outcome{err: fmt.Errorf("harness: optimality generate %s n=%d: %w", j.dev.Name(), j.n, err)}
		}
		if err := qubikos.Verify(b); err != nil {
			return outcome{err: fmt.Errorf("harness: optimality structural verify: %w", err)}
		}
		s, err := olsq.New(b.Circuit, j.dev, olsq.Options{})
		if err != nil {
			return outcome{err: err}
		}
		verr := s.VerifyOptimalCtx(ctx, j.n)
		st := s.SolverStats()
		sp.ArgInt("conflicts", st.Conflicts)
		sp.ArgInt("restarts", st.Restarts)
		sp.ArgInt("learned", st.Learned)
		if verr != nil && ctx.Err() != nil {
			// Cancellation mid-proof, not a deviation: abort the study.
			return outcome{err: verr}
		}
		return outcome{verified: verr == nil}
	}

	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// A failed instance aborts the pool: remaining jobs are skipped
	// rather than paying their certifications. ParallelFor surfaces the
	// lowest-indexed error, so success/failure (and, on success, every
	// row) is deterministic for any worker count.
	outcomes := make([]outcome, len(jobs))
	if err := pool.ParallelForCtx(ctx, len(jobs), workers, func(ji int) error {
		outcomes[ji] = run(jobs[ji])
		return outcomes[ji].err
	}); err != nil {
		return nil, err
	}
	for ji, o := range outcomes {
		r := &rows[jobs[ji].row]
		r.Circuits++
		if o.verified {
			r.Verified++
		} else {
			r.Deviation++
		}
	}
	return rows, nil
}

// RenderOptimality prints the study as a table.
func RenderOptimality(w io.Writer, rows []OptimalityRow) {
	fmt.Fprintln(w, "Optimality study (exact SAT verification, Section IV-A analogue):")
	fmt.Fprintf(w, "%-10s %9s %9s %9s %10s\n", "device", "opt-swap", "circuits", "verified", "deviation")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %9d %9d %9d %10d\n", r.Device, r.OptSwaps, r.Circuits, r.Verified, r.Deviation)
	}
}

// Summary builds a single human-readable report over a full run.
func Summary(figs []*Figure) string {
	var b strings.Builder
	for _, f := range figs {
		RenderFigure(&b, f)
		b.WriteString("\n")
	}
	RenderAbstract(&b, AbstractGaps(figs))
	b.WriteString("\nBest-tool gap per device (size/structure trend):\n")
	for _, d := range DeviceGaps(figs) {
		fmt.Fprintf(&b, "  %-12s best=%-12s %9.2fx\n", d.Device, d.BestTool, d.BestRatio)
	}
	return b.String()
}
