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
// Every experiment reads its instances from a content-addressed
// suite.Store; a one-shot run uses a temporary store. Every Figure-4
// cell comes from one evaluator: RunStoredEvalCtx fans the tools over a
// stored suite, streaming per-instance rows into a resumable JSONL log
// that FigureFromRows aggregates. The store guarantees repeated
// evaluations of the same recipe reuse bit-identical benchmarks without
// regenerating. The Section IV-A study stores one suite per device and
// certifies it with CertifySuite, the one certification loop over the
// one certifier (certify.go). The Section IV-C case study stores its
// suite with the store's Verify on, so every instance it scores is
// certified on its bytes. Every (tool, instance) pair, in the Figure-4
// sweep and the case study alike, routes through the same router.Guard.
package harness

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/family"
	"repro/internal/mlqls"
	"repro/internal/qmap"
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
// 1000; CI-scale runs use far fewer). LightSABRE and ML-QLS spread their
// trials over worker slots the sweep's budget leaves idle; QMAP and
// t|ket⟩ route on the calling goroutine.
func DefaultTools(sabreTrials int) []ToolSpec {
	return []ToolSpec{
		{"lightsabre", func(seed int64) router.Router {
			return sabre.New(sabre.Options{Trials: sabreTrials, Seed: seed})
		}},
		{"ml-qls", func(seed int64) router.Router {
			return mlqls.New(mlqls.Options{Seed: seed})
		}},
		{"qmap", func(seed int64) router.Router {
			return qmap.New(qmap.Options{MaxNodes: 2000, Seed: seed})
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
// evaluating a smaller tool set. A repeated name is an error too: it
// would route every instance twice and count the tool twice in every
// average.
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
		if slices.ContainsFunc(out, func(o ToolSpec) bool { return o.Name == name }) {
			return nil, fmt.Errorf("harness: tool %q listed twice", name)
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
		}
	}
	return []SuiteConfig{
		mk(arch.RigettiAspen4(), 300),
		mk(arch.GoogleSycamore54(), 1500),
		mk(arch.IBMRochester53(), 1500),
		mk(arch.IBMEagle127(), 3000),
	}
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

// EvalItem is one benchmark to evaluate: a circuit on a device with a
// proven optimum of some metric.
type EvalItem struct {
	// ID names the item in logs and errors (an instance base name).
	ID      string
	Device  *arch.Device
	Circuit *circuit.Circuit
	// Metric is the scored metric (zero value scores swaps).
	Metric family.Metric
	// Optimal is the proven optimal value of Metric.
	Optimal int

	// initial is the start mapping routeOne pins; nil lets each tool
	// place the circuit.
	initial router.Mapping
	// prep is the shared routing context (padded circuit, skeleton,
	// DAGs, layers), built once per instance by loadItem and handed
	// read-only to every tool. nil means routeOne prepares the item
	// itself.
	prep *router.Prepared
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
// across families stay unambiguous, and counts the attempts that
// failed, so a timed-out tool shows as failures rather than a short row.
func RenderFigure(w io.Writer, f *Figure) {
	fmt.Fprintf(w, "Figure: %s (target %d two-qubit gates)\n", f.Device, f.Gates)
	fmt.Fprintf(w, "%-14s %-7s %8s %9s %11s %11s %10s %10s %9s %9s\n",
		"tool", "metric", "optimum", "circuits", "mean-swaps", "mean-depth", "mean-gap", "min-gap", "max-gap", "failures")
	for _, c := range f.Cells {
		fmt.Fprintf(w, "%-14s %-7s %8d %9d %11.1f %11.1f %9.2fx %9.2fx %8.2fx %9d\n",
			c.Tool, cellMetric(c), c.Optimal, c.Circuits, c.MeanSwaps, c.MeanDepth, c.MeanRatio, c.MinRatio, c.MaxRatio, c.Failures)
	}
}

// RenderFigureCSV emits the figures' cells as one CSV table, under one
// header, for external plotting; like the text table, every row carries
// its device and scored metric. It returns the first write error.
func RenderFigureCSV(w io.Writer, figs ...*Figure) error {
	if _, err := fmt.Fprintln(w, "device,tool,metric,optimal,circuits,mean_swaps,mean_depth,mean_ratio,min_ratio,max_ratio,failures"); err != nil {
		return err
	}
	for _, f := range figs {
		for _, c := range f.Cells {
			if _, err := fmt.Fprintf(w, "%s,%s,%s,%d,%d,%.3f,%.3f,%.3f,%.3f,%.3f,%d\n",
				f.Device, c.Tool, cellMetric(c), c.Optimal, c.Circuits, c.MeanSwaps, c.MeanDepth,
				c.MeanRatio, c.MinRatio, c.MaxRatio, c.Failures); err != nil {
				return err
			}
		}
	}
	return nil
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
