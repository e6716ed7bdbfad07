package harness

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/family"
	"repro/internal/router"
	"repro/internal/suite"
)

// tinyCfg is a suite configuration small enough to generate and evaluate
// in well under a second.
func tinyCfg() SuiteConfig {
	return SuiteConfig{
		Device:              arch.Grid3x3(),
		SwapCounts:          []int{1, 2},
		CircuitsPerCount:    2,
		TargetTwoQubitGates: 20,
		Seed:                11,
	}
}

func openStore(t *testing.T) *suite.Store {
	t.Helper()
	s, err := suite.Open(t.TempDir(), suite.StoreOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// ensureSuite stores cfg's suite in a fresh store.
func ensureSuite(t *testing.T, cfg SuiteConfig) (*suite.Store, *suite.Suite) {
	t.Helper()
	store := openStore(t)
	st, err := store.EnsureCtx(context.Background(), cfg.Manifest())
	if err != nil {
		t.Fatal(err)
	}
	return store, st
}

// evalFigure evaluates cfg's suite from a fresh store, seeding the tools
// from cfg.Seed.
func evalFigure(t *testing.T, cfg SuiteConfig, tools []ToolSpec) *Figure {
	t.Helper()
	store, st := ensureSuite(t, cfg)
	fig, err := RunStoredEvalCtx(context.Background(), store, st, tools, StoredEvalOptions{Seed: cfg.Seed})
	if err != nil {
		t.Fatal(err)
	}
	return fig
}

// goldenTinyCells are tinyCfg's cells under DefaultTools(2), recorded
// from the retired inline evaluator: the same benchmarks, routing seeds
// and aggregation the stored path must keep reproducing.
var goldenTinyCells = []Cell{
	{Tool: "lightsabre", Metric: "swaps", Optimal: 1, Circuits: 2, MeanSwaps: 1, MeanDepth: 13.5, MeanRatio: 1, MinRatio: 1, MaxRatio: 1},
	{Tool: "lightsabre", Metric: "swaps", Optimal: 2, Circuits: 2, MeanSwaps: 2, MeanDepth: 23, MeanRatio: 1, MinRatio: 1, MaxRatio: 1},
	{Tool: "ml-qls", Metric: "swaps", Optimal: 1, Circuits: 2, MeanSwaps: 4, MeanDepth: 19.5, MeanRatio: 4, MinRatio: 2, MaxRatio: 6},
	{Tool: "ml-qls", Metric: "swaps", Optimal: 2, Circuits: 2, MeanSwaps: 14, MeanDepth: 48.5, MeanRatio: 7, MinRatio: 6.5, MaxRatio: 7.5},
	{Tool: "qmap", Metric: "swaps", Optimal: 1, Circuits: 2, MeanSwaps: 15.5, MeanDepth: 40, MeanRatio: 15.5, MinRatio: 11, MaxRatio: 20},
	{Tool: "qmap", Metric: "swaps", Optimal: 2, Circuits: 2, MeanSwaps: 19, MeanDepth: 51.5, MeanRatio: 9.5, MinRatio: 9, MaxRatio: 10},
	{Tool: "tket", Metric: "swaps", Optimal: 1, Circuits: 2, MeanSwaps: 9.5, MeanDepth: 33.5, MeanRatio: 9.5, MinRatio: 8, MaxRatio: 11},
	{Tool: "tket", Metric: "swaps", Optimal: 2, Circuits: 2, MeanSwaps: 16.5, MeanDepth: 49, MeanRatio: 8.25, MinRatio: 8, MaxRatio: 8.5},
}

// goldenDepthCells are TestStoredEvalDepthFamily's cells, recorded the
// same way.
var goldenDepthCells = []Cell{
	{Tool: "lightsabre", Metric: "depth", Optimal: 3, Circuits: 2, MeanSwaps: 1.5, MeanDepth: 7.5, MeanRatio: 2.5, MinRatio: 2.3333333333333335, MaxRatio: 2.6666666666666665},
	{Tool: "lightsabre", Metric: "depth", Optimal: 5, Circuits: 2, MeanSwaps: 1.5, MeanDepth: 8, MeanRatio: 1.6, MinRatio: 1.6, MaxRatio: 1.6},
	{Tool: "ml-qls", Metric: "depth", Optimal: 3, Circuits: 2, MeanSwaps: 3.5, MeanDepth: 12.5, MeanRatio: 4.166666666666666, MinRatio: 3, MaxRatio: 5.333333333333333},
	{Tool: "ml-qls", Metric: "depth", Optimal: 5, Circuits: 2, MeanSwaps: 4, MeanDepth: 15, MeanRatio: 3, MinRatio: 3, MaxRatio: 3},
	{Tool: "qmap", Metric: "depth", Optimal: 3, Circuits: 2, MeanSwaps: 6.5, MeanDepth: 19.5, MeanRatio: 6.5, MinRatio: 6, MaxRatio: 7},
	{Tool: "qmap", Metric: "depth", Optimal: 5, Circuits: 2, MeanSwaps: 6.5, MeanDepth: 18, MeanRatio: 3.5999999999999996, MinRatio: 2.6, MaxRatio: 4.6},
	{Tool: "tket", Metric: "depth", Optimal: 3, Circuits: 2, MeanSwaps: 6, MeanDepth: 15.5, MeanRatio: 5.166666666666667, MinRatio: 4.666666666666667, MaxRatio: 5.666666666666667},
	{Tool: "tket", Metric: "depth", Optimal: 5, Circuits: 2, MeanSwaps: 4, MeanDepth: 11, MeanRatio: 2.2, MinRatio: 1.8, MaxRatio: 2.6},
}

// The stored evaluation must reproduce the pinned cells exactly: same
// benchmarks (same seed schedule), same routing seeds, same aggregation.
func TestStoredEvalGoldenCells(t *testing.T) {
	cfg := tinyCfg()
	fig := evalFigure(t, cfg, DefaultTools(2))
	if fig.Device != "grid-3x3" || fig.Metric != "swaps" || fig.Gates != cfg.TargetTwoQubitGates {
		t.Fatalf("figure header %s/%s/%d, want grid-3x3/swaps/%d", fig.Device, fig.Metric, fig.Gates, cfg.TargetTwoQubitGates)
	}
	if !reflect.DeepEqual(fig.Cells, goldenTinyCells) {
		t.Errorf("cells differ from the golden:\ngot:  %+v\nwant: %+v", fig.Cells, goldenTinyCells)
	}
}

// Evaluating a cached suite must not generate anything: the store is
// populated once, and every subsequent evaluation — including a resumed
// identical one — touches only stored bytes. This is the acceptance
// criterion for cache-backed qubikos-eval.
func TestStoredEvalSkipsGeneration(t *testing.T) {
	cfg := tinyCfg()
	tools := DefaultTools(2)
	store := openStore(t)
	m := cfg.Manifest()

	st, err := store.EnsureCtx(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	generated := store.Stats().InstancesGenerated
	if generated != int64(m.NumInstances()) {
		t.Fatalf("populate generated %d instances, want %d", generated, m.NumInstances())
	}

	var streamed1 int
	fig1, err := RunStoredEvalCtx(context.Background(), store, st, tools, StoredEvalOptions{
		Seed:  cfg.Seed,
		OnRow: func(suite.Row) { streamed1++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := store.Stats().InstancesGenerated; got != generated {
		t.Errorf("evaluation regenerated: %d instances, want still %d", got, generated)
	}
	wantRows := len(tools) * m.NumInstances()
	if streamed1 != wantRows {
		t.Errorf("first run streamed %d rows, want %d", streamed1, wantRows)
	}

	// A second identical evaluation resumes off the log: zero new rows,
	// zero generation, identical figure.
	var streamed2 int
	fig2, err := RunStoredEvalCtx(context.Background(), store, st, tools, StoredEvalOptions{
		Seed:  cfg.Seed,
		OnRow: func(suite.Row) { streamed2++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if streamed2 != 0 {
		t.Errorf("resumed run streamed %d rows, want 0", streamed2)
	}
	if got := store.Stats().InstancesGenerated; got != generated {
		t.Errorf("resumed evaluation regenerated: %d instances, want still %d", got, generated)
	}
	if !reflect.DeepEqual(fig1.Cells, fig2.Cells) {
		t.Errorf("resumed figure differs:\nfirst:  %+v\nsecond: %+v", fig1.Cells, fig2.Cells)
	}
}

// Parallel evaluation must aggregate identically to serial: rows are per
// (tool, instance) with fixed seeds, so worker count cannot leak into
// results.
func TestStoredEvalParallelMatchesSerial(t *testing.T) {
	cfg := tinyCfg()
	tools := DefaultTools(2)

	runWith := func(workers int) *Figure {
		store := openStore(t)
		st, err := store.EnsureCtx(context.Background(), cfg.Manifest())
		if err != nil {
			t.Fatal(err)
		}
		fig, err := RunStoredEvalCtx(context.Background(), store, st, tools, StoredEvalOptions{Seed: cfg.Seed, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return fig
	}
	serial := runWith(1)
	parallel := runWith(4)
	if !reflect.DeepEqual(serial.Cells, parallel.Cells) {
		t.Errorf("parallel evaluation diverged from serial:\nserial:   %+v\nparallel: %+v", serial.Cells, parallel.Cells)
	}
}

// TestStoredEvalSharedPreparedParallel pins the shared-context
// contract: every tool of a parallel evaluation routes from the same
// per-instance router.Prepared, and the aggregate still equals a serial
// run's. Run under -race in CI, this proves no tool mutates the shared
// context.
func TestStoredEvalSharedPreparedParallel(t *testing.T) {
	cfg := tinyCfg()
	tools := DefaultTools(2)
	store := openStore(t)
	st, err := store.EnsureCtx(context.Background(), cfg.Manifest())
	if err != nil {
		t.Fatal(err)
	}
	runWith := func(workers int, key string) *Figure {
		fig, err := RunStoredEvalCtx(context.Background(), store, st, tools, StoredEvalOptions{
			Seed: cfg.Seed, Workers: workers, Key: key,
		})
		if err != nil {
			t.Fatal(err)
		}
		return fig
	}
	serial := runWith(1, "serial")
	parallel := runWith(8, "parallel")
	if !reflect.DeepEqual(serial.Cells, parallel.Cells) {
		t.Errorf("parallel run over shared Prepared diverged from serial:\nserial:   %+v\nparallel: %+v",
			serial.Cells, parallel.Cells)
	}
}

// failingRouter always errors; RunStoredEvalCtx must surface the real
// message in the row, not a generic "tool failed to route".
type failingRouter struct{}

func (failingRouter) Name() string { return "failing" }
func (failingRouter) Route(context.Context, *router.Prepared, router.Mapping) (*router.Result, error) {
	return nil, errors.New("synthetic failure: boom")
}

func TestStoredEvalPropagatesRouterError(t *testing.T) {
	cfg := tinyCfg()
	store := openStore(t)
	st, err := store.EnsureCtx(context.Background(), cfg.Manifest())
	if err != nil {
		t.Fatal(err)
	}
	tools := []ToolSpec{{Name: "failing", Make: func(int64) router.Router { return failingRouter{} }}}
	var rows []suite.Row
	fig, err := RunStoredEvalCtx(context.Background(), store, st, tools, StoredEvalOptions{
		Seed:  cfg.Seed,
		OnRow: func(r suite.Row) { rows = append(rows, r) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != st.Manifest.NumInstances() {
		t.Fatalf("streamed %d rows, want %d", len(rows), st.Manifest.NumInstances())
	}
	for _, r := range rows {
		if !strings.Contains(r.Error, "synthetic failure: boom") {
			t.Errorf("row %s error = %q, want the router's message in it", r.Instance, r.Error)
		}
	}
	failures := 0
	for _, c := range fig.Cells {
		failures += c.Failures
	}
	if failures != st.Manifest.NumInstances() {
		t.Errorf("aggregated %d failures, want %d", failures, st.Manifest.NumInstances())
	}
}

func TestEvalKeyStable(t *testing.T) {
	a := EvalKey("lightsabre", "trials=8", "seed=1")
	b := EvalKey("lightsabre", "trials=8", "seed=1")
	c := EvalKey("lightsabre", "trials=9", "seed=1")
	if a != b {
		t.Error("identical inputs gave different keys")
	}
	if a == c {
		t.Error("different trial counts gave the same key")
	}
	// Joining is delimiter-safe: part boundaries matter.
	if EvalKey("ab", "c") == EvalKey("a", "bc") {
		t.Error("key ignores part boundaries")
	}
}

// StoredEvalKey names the eval logs qubikos-eval and qubikos-serve
// write, so it must keep the bytes both built by hand before it existed:
// a log written then must still resume.
func TestStoredEvalKeyMatchesHandBuiltKey(t *testing.T) {
	tools := []ToolSpec{{Name: "lightsabre"}, {Name: "tket"}}
	got := StoredEvalKey(tools, 8, 1)
	if want := EvalKey("lightsabre", "tket", "trials=8", "seed=1"); got != want {
		t.Fatalf("StoredEvalKey = %s, want %s", got, want)
	}
	const logged = "412d204add50636f"
	if got != logged {
		t.Fatalf("StoredEvalKey = %s; existing eval logs are named %s", got, logged)
	}
}

// A depth-family stored evaluation must score depth ratios end to end:
// rows labeled with the metric, both achieved values recorded, and the
// aggregate equal to the golden cells.
func TestStoredEvalDepthFamily(t *testing.T) {
	cfg := SuiteConfig{
		Device:              arch.Grid3x3(),
		Family:              family.QuekoDepthID,
		SwapCounts:          []int{3, 5}, // known-optimal routed depths
		CircuitsPerCount:    2,
		TargetTwoQubitGates: 12,
		Seed:                11,
	}
	tools := DefaultTools(2)
	store, st := ensureSuite(t, cfg)
	var rows []suite.Row
	stored, err := RunStoredEvalCtx(context.Background(), store, st, tools, StoredEvalOptions{
		Seed:  cfg.Seed,
		OnRow: func(r suite.Row) { rows = append(rows, r) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if stored.Metric != string(family.Depth) {
		t.Fatalf("stored figure metric = %q, want depth", stored.Metric)
	}
	if !reflect.DeepEqual(stored.Cells, goldenDepthCells) {
		t.Errorf("depth cells differ from the golden:\ngot:  %+v\nwant: %+v", stored.Cells, goldenDepthCells)
	}
	if len(rows) != len(tools)*st.Manifest.NumInstances() {
		t.Fatalf("streamed %d rows, want %d", len(rows), len(tools)*st.Manifest.NumInstances())
	}
	for _, r := range rows {
		if r.Metric != string(family.Depth) {
			t.Errorf("row %s/%s metric = %q, want depth", r.Tool, r.Instance, r.Metric)
		}
		if r.Error != "" {
			continue
		}
		if r.Depth < r.Optimal {
			t.Errorf("row %s/%s achieved depth %d below the proven optimum %d", r.Tool, r.Instance, r.Depth, r.Optimal)
		}
		if want := family.Depth.Ratio(r.Depth, r.Optimal); r.Ratio != want {
			t.Errorf("row %s/%s ratio %.3f, want %.3f (depth/optimal)", r.Tool, r.Instance, r.Ratio, want)
		}
	}
}

// A suite carrying a non-positive scored optimum (a 0-swap degenerate
// suite) must be rejected with an error, not panic a worker — a remote
// client can POST such a manifest to qubikos-serve.
func TestStoredEvalRejectsNonPositiveOptimum(t *testing.T) {
	store := openStore(t)
	m := suite.NewManifest("grid3x3", []int{0}, 1, family.Options{
		TargetTwoQubitGates: 10,
		Seed:                4,
	})
	st, err := store.EnsureCtx(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	_, err = RunStoredEvalCtx(context.Background(), store, st, DefaultTools(2)[:1], StoredEvalOptions{Seed: 4})
	if err == nil || !strings.Contains(err.Error(), "no positive optimal") {
		t.Fatalf("0-swap suite evaluation: err = %v, want a no-positive-optimum error", err)
	}
	// The router study makes the same promise.
	_, err = RunRouterStudy(context.Background(), store, st, DefaultTools(2)[:1], 4)
	if err == nil || !strings.Contains(err.Error(), "no positive optimal") {
		t.Fatalf("0-swap router study: err = %v, want a no-positive-optimum error", err)
	}
}

// Rows logged before multi-metric scoring carry no depth; resuming over
// such a log must not deflate the depth column with zeros.
func TestFigureFromRowsExcludesLegacyRowsFromDepthMean(t *testing.T) {
	cfg := tinyCfg()
	store := openStore(t)
	st, err := store.EnsureCtx(context.Background(), cfg.Manifest())
	if err != nil {
		t.Fatal(err)
	}
	rows := []suite.Row{
		// Legacy row: no Metric, no Depth.
		{Suite: st.Hash, Instance: "s001_i000", Optimal: 1, Tool: "lightsabre", Swaps: 1, Ratio: 1},
		// Post-registry row with a real depth.
		{Suite: st.Hash, Instance: "s001_i001", Metric: "swaps", Optimal: 1, Tool: "lightsabre",
			Swaps: 1, Depth: 8, Ratio: 1},
	}
	fig := FigureFromRows(st, rows, DefaultTools(2)[:1])
	var cell *Cell
	for i := range fig.Cells {
		if fig.Cells[i].Optimal == 1 {
			cell = &fig.Cells[i]
		}
	}
	if cell == nil || cell.Circuits != 2 {
		t.Fatalf("cell = %+v", cell)
	}
	if cell.MeanDepth != 8 {
		t.Errorf("mean depth = %v, want 8 (legacy zero-depth row excluded), not 4", cell.MeanDepth)
	}
}
