package harness

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/chaos"
	"repro/internal/family"
)

func smallSuite() SuiteConfig {
	return SuiteConfig{
		Device:              arch.RigettiAspen4(),
		SwapCounts:          []int{2, 3},
		CircuitsPerCount:    2,
		TargetTwoQubitGates: 60,
		Seed:                1,
	}
}

func TestRunFigureShape(t *testing.T) {
	fig := evalFigure(t, smallSuite(), DefaultTools(2))
	if len(fig.Cells) != 4*2 { // 4 tools x 2 swap counts
		t.Fatalf("cells=%d want 8", len(fig.Cells))
	}
	for _, c := range fig.Cells {
		if c.Circuits != 2 {
			t.Errorf("%s n=%d circuits=%d want 2", c.Tool, c.Optimal, c.Circuits)
		}
		if c.MeanRatio < 1 {
			t.Errorf("%s n=%d mean ratio %.2f below 1 — optimality violated", c.Tool, c.Optimal, c.MeanRatio)
		}
		if c.MinRatio > c.MeanRatio || c.MeanRatio > c.MaxRatio {
			t.Errorf("%s n=%d ratio ordering broken: %v %v %v", c.Tool, c.Optimal, c.MinRatio, c.MeanRatio, c.MaxRatio)
		}
	}
}

func TestAbstractGapsAndDeviceGaps(t *testing.T) {
	fig := evalFigure(t, smallSuite(), DefaultTools(2))
	gaps := AbstractGaps([]*Figure{fig})
	if len(gaps) != 4 {
		t.Fatalf("gaps=%d want 4 tools", len(gaps))
	}
	for _, g := range gaps {
		if g.MeanRatio < 1 {
			t.Errorf("%s mean %.2f < 1", g.Tool, g.MeanRatio)
		}
	}
	dg := DeviceGaps([]*Figure{fig})
	if len(dg) != 1 || dg[0].Device != "aspen4" {
		t.Fatalf("device gaps: %+v", dg)
	}
	if dg[0].BestRatio < 1 {
		t.Error("best ratio below 1")
	}
}

func TestRenderers(t *testing.T) {
	fig := evalFigure(t, smallSuite(), DefaultTools(2)[:1])
	var sb strings.Builder
	RenderFigure(&sb, fig)
	if !strings.Contains(sb.String(), "lightsabre") {
		t.Error("table missing tool name")
	}
	// Two figures share one header.
	sb.Reset()
	if err := RenderFigureCSV(&sb, fig, fig); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(sb.String(), "device,tool,metric,optimal") || strings.Count(sb.String(), "device,tool") != 1 {
		t.Errorf("CSV wants exactly one header, first:\n%s", sb.String())
	}
	lines := strings.Count(sb.String(), "\n")
	if lines != 1+2*len(fig.Cells) {
		t.Errorf("CSV lines=%d want %d", lines, 1+2*len(fig.Cells))
	}
}

// failAfter accepts n writes, then fails every later one.
type failAfter struct{ n int }

var errWriteFailed = errors.New("write failed")

func (w *failAfter) Write(p []byte) (int, error) {
	if w.n == 0 {
		return 0, errWriteFailed
	}
	w.n--
	return len(p), nil
}

// RenderFigureCSV returns the first write error, whether the header or
// a row fails, so a CSV export that did not reach its file never passes
// for written.
func TestRenderFigureCSVReturnsWriteError(t *testing.T) {
	fig := &Figure{Device: "aspen4", Cells: []Cell{{Tool: "lightsabre", Optimal: 2, Circuits: 1}, {Tool: "tket", Optimal: 2, Circuits: 1}}}
	for _, n := range []int{0, 1, 2} { // the header, the first row, the last row
		if err := RenderFigureCSV(&failAfter{n: n}, fig); !errors.Is(err, errWriteFailed) {
			t.Errorf("writer failing after %d writes: err=%v, want %v", n, err, errWriteFailed)
		}
	}
	if err := RenderFigureCSV(&failAfter{n: 3}, fig); err != nil {
		t.Errorf("writer taking all 3 lines: err=%v, want nil", err)
	}
}

// studyConfigs are the small Section IV-A configurations the study tests
// run: the qubikos swap study and the queko-depth study.
func studyConfigs() []OptimalityConfig {
	swaps := DefaultOptimalityConfig(2, 5)
	swaps.SwapCounts = []int{1, 2}
	depth := DefaultOptimalityConfig(2, 5)
	depth.Family = family.QuekoDepthID
	depth.SwapCounts = []int{4, 8}
	return []OptimalityConfig{swaps, depth}
}

func TestOptimalityStudySmall(t *testing.T) {
	if testing.Short() {
		t.Skip("SAT study in -short mode")
	}
	for _, cfg := range studyConfigs() {
		rows, err := RunOptimalityStudyCtx(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 4 { // 2 devices x 2 optima
			t.Fatalf("rows=%d", len(rows))
		}
		wantMetric := "swaps"
		if cfg.Family != "" {
			wantMetric = "depth"
		}
		for _, r := range rows {
			if r.Metric != wantMetric {
				t.Errorf("%s n=%d: metric %q, want %q", r.Device, r.Optimal, r.Metric, wantMetric)
			}
			if r.Deviation != 0 {
				t.Errorf("%s n=%d: %d deviations — generator optimality broken", r.Device, r.Optimal, r.Deviation)
			}
			if r.Circuits != 2 || r.Verified != r.Circuits {
				t.Errorf("%s n=%d: verified %d of %d", r.Device, r.Optimal, r.Verified, r.Circuits)
			}
		}
		var sb strings.Builder
		RenderOptimality(&sb, rows)
		if !strings.Contains(sb.String(), "grid-3x3") || !strings.Contains(sb.String(), wantMetric) {
			t.Errorf("optimality table missing grid device or metric:\n%s", sb.String())
		}
	}
}

// The certification worker pool must reproduce the serial rows exactly
// for any worker count (also exercised with -race in CI).
func TestOptimalityStudyParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("SAT study in -short mode")
	}
	for _, cfg := range studyConfigs() {
		cfg.Workers = 1
		serial, err := RunOptimalityStudyCtx(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{4, 16} {
			cfg.Workers = workers
			parallel, err := RunOptimalityStudyCtx(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(serial, parallel) {
				t.Fatalf("workers=%d rows differ:\nserial:   %+v\nparallel: %+v", workers, serial, parallel)
			}
		}
	}
}

// A cancelled evaluation returns the cancellation cause and no partial
// figure, whether the context was dead on arrival or its deadline fires
// while a tool is mid-route.
func TestStoredEvalCancelledReturnsCauseOnly(t *testing.T) {
	cfg := smallSuite()
	store, st := ensureSuite(t, cfg)
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	fig, err := RunStoredEvalCtx(dead, store, st, DefaultTools(2), StoredEvalOptions{Seed: cfg.Seed})
	if !errors.Is(err, context.Canceled) || fig != nil {
		t.Fatalf("dead context: fig=%v err=%v, want no figure and context.Canceled", fig, err)
	}

	ctx, cancelMid := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancelMid()
	tools := []ToolSpec{healthySpec(), chaosSpec("hung", chaos.HangUntilCancel, nil)}
	fig, err = RunStoredEvalCtx(ctx, store, st, tools, StoredEvalOptions{Seed: cfg.Seed})
	if !errors.Is(err, context.DeadlineExceeded) || fig != nil {
		t.Fatalf("deadline mid-run: fig=%v err=%v, want no figure and context.DeadlineExceeded", fig, err)
	}
}

// A cancelled optimality study returns the cancellation cause and no
// partial table, both before the first certification and mid-study.
func TestRunOptimalityStudyCtxCancelledReturnsCauseOnly(t *testing.T) {
	cfg := DefaultOptimalityConfig(4, 5)
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	rows, err := RunOptimalityStudyCtx(dead, cfg)
	if !errors.Is(err, context.Canceled) || rows != nil {
		t.Fatalf("dead context: rows=%v err=%v, want no rows and context.Canceled", rows, err)
	}

	ctx, cancelMid := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancelMid()
	start := time.Now()
	rows, err = RunOptimalityStudyCtx(ctx, cfg)
	if !errors.Is(err, context.DeadlineExceeded) || rows != nil {
		t.Fatalf("deadline mid-study: rows=%v err=%v, want no rows and context.DeadlineExceeded", rows, err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("cancelled study took %v to stop", elapsed)
	}
}

// The case study routes all 100 instances of its suite, finds at least
// one misrouted despite the optimal mapping with an example decision,
// and reports the uniform line and the three decayed ones.
func TestCaseStudyRuns(t *testing.T) {
	res, err := RunCaseStudy(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Instances != 100 || len(res.PerInstance) != 100 {
		t.Fatalf("instances=%d outcomes=%d, want 100", res.Instances, len(res.PerInstance))
	}
	if res.MeanRatio < 1 {
		t.Errorf("mean ratio %.2f < 1", res.MeanRatio)
	}
	if res.Suboptimal == 0 || res.FirstMiss == nil {
		t.Errorf("suboptimal=%d example=%v, want a misrouted instance and its decision", res.Suboptimal, res.FirstMiss)
	}
	var decays []float64
	for _, l := range res.DecayLines {
		decays = append(decays, l.Decay)
	}
	if !reflect.DeepEqual(decays, []float64{0, 0.5, 0.7, 0.9}) {
		t.Fatalf("decay lines %v, want uniform, 0.5, 0.7 and 0.9", decays)
	}
	if u := res.DecayLines[0]; u.MeanRatio != res.MeanRatio || u.Suboptimal != res.Suboptimal {
		t.Errorf("uniform line %+v differs from the traced pass (%.4f, %d)", u, res.MeanRatio, res.Suboptimal)
	}
	var sb strings.Builder
	RenderCaseStudy(&sb, res)
	if !strings.Contains(sb.String(), "lookahead-decay ablation") {
		t.Error("case study rendering incomplete")
	}
}

// A cancelled case study returns the cancellation cause and no result.
func TestRunCaseStudyCtxCancelledReturnsCauseOnly(t *testing.T) {
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RunCaseStudy(dead)
	if !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("dead context: res=%v err=%v, want no result and context.Canceled", res, err)
	}
}

func TestPaperSuitesConfiguration(t *testing.T) {
	suites := PaperSuites(10, 1)
	if len(suites) != 4 {
		t.Fatalf("suites=%d", len(suites))
	}
	wantGates := map[string]int{"aspen4": 300, "sycamore54": 1500, "rochester53": 1500, "eagle127": 3000}
	for _, s := range suites {
		if want := wantGates[s.Device.Name()]; s.TargetTwoQubitGates != want {
			t.Errorf("%s gates=%d want %d", s.Device.Name(), s.TargetTwoQubitGates, want)
		}
		if len(s.SwapCounts) != 4 || s.SwapCounts[0] != 5 || s.SwapCounts[3] != 20 {
			t.Errorf("%s swap counts %v", s.Device.Name(), s.SwapCounts)
		}
	}
}

// routeFromPlanted routes every instance of cfg's suite with every
// default tool from its planted mapping, Section IV-C's standalone-router
// mode (qubikos-route -from-optimal), and returns each tool's mean ratio
// to the optimum. A tool that cannot route from a fixed placement, or
// whose result does not start from the planted mapping, fails t.
func routeFromPlanted(t *testing.T, cfg SuiteConfig) map[string]float64 {
	t.Helper()
	items, err := plantedItems(ensureSuite(t, cfg))
	if err != nil {
		t.Fatal(err)
	}
	meanRatio := map[string]float64{}
	for _, it := range items {
		for _, spec := range DefaultTools(4) {
			res, toolErr, err := routeOne(context.Background(), spec, it, cfg.Seed, 0, nil)
			if err != nil || res == nil {
				t.Errorf("%s cannot route %s from the planted mapping: %v %s", spec.Name, it.ID, err, toolErr)
				continue
			}
			if !reflect.DeepEqual(res.InitialMapping, it.initial) {
				t.Errorf("%s started %s from %v, not the planted %v", spec.Name, it.ID, res.InitialMapping, it.initial)
			}
			meanRatio[spec.Name] += family.Swaps.Ratio(res.SwapCount, it.Optimal) / float64(len(items))
		}
	}
	return meanRatio
}

// Every default tool must route from a fixed placement: starting from
// the planted mapping, the result's initial mapping is that mapping.
func TestAllDefaultToolsSupportPlacedRouting(t *testing.T) {
	routeFromPlanted(t, SuiteConfig{Device: arch.RigettiAspen4(), SwapCounts: []int{2}, CircuitsPerCount: 1, TargetTwoQubitGates: 40, Seed: 3})
}

// From the planted mapping, LightSABRE must route no worse on average
// than t|ket⟩ and strictly better than QMAP: the paper's point that
// QUBIKOS isolates routing quality from placement, so two tools given
// the same optimal placement still separate.
func TestRouterStudySeparatesToolQuality(t *testing.T) {
	meanRatio := routeFromPlanted(t, SuiteConfig{Device: arch.RigettiAspen4(), SwapCounts: []int{5}, CircuitsPerCount: 4, TargetTwoQubitGates: 300, Seed: 9})
	if meanRatio["lightsabre"] > meanRatio["tket"] {
		t.Errorf("lightsabre (%.2fx) should route no worse than tket (%.2fx) from the planted mapping",
			meanRatio["lightsabre"], meanRatio["tket"])
	}
	if meanRatio["qmap"] <= meanRatio["lightsabre"] {
		t.Errorf("qmap (%.2fx) should route worse than lightsabre (%.2fx) from the planted mapping",
			meanRatio["qmap"], meanRatio["lightsabre"])
	}
}

// smallDepthSuite mirrors smallSuite for the depth-objective family.
func smallDepthSuite() SuiteConfig {
	return SuiteConfig{
		Device:              arch.RigettiAspen4(),
		Family:              family.QuekoDepthID,
		SwapCounts:          []int{4, 6}, // known-optimal routed depths
		CircuitsPerCount:    2,
		TargetTwoQubitGates: 40,
		Seed:                1,
	}
}

// A depth-family figure must score routed depth: every cell labeled with
// the depth metric, every ratio >= 1 (the structural lower bound makes
// beating the optimum impossible), and mean depth >= the grid value.
func TestRunFigureDepthFamily(t *testing.T) {
	fig := evalFigure(t, smallDepthSuite(), DefaultTools(2))
	if fig.Metric != string(family.Depth) {
		t.Fatalf("figure metric = %q, want depth", fig.Metric)
	}
	if len(fig.Cells) != 4*2 {
		t.Fatalf("cells=%d want 8", len(fig.Cells))
	}
	for _, c := range fig.Cells {
		if c.Metric != string(family.Depth) {
			t.Errorf("%s cell metric = %q, want depth", c.Tool, c.Metric)
		}
		if c.Circuits != 2 {
			t.Errorf("%s d=%d circuits=%d want 2", c.Tool, c.Optimal, c.Circuits)
		}
		if c.MeanRatio < 1 {
			t.Errorf("%s d=%d mean depth ratio %.2f below 1 — depth lower bound violated", c.Tool, c.Optimal, c.MeanRatio)
		}
		if c.MeanDepth < float64(c.Optimal) {
			t.Errorf("%s d=%d mean depth %.1f below the optimum", c.Tool, c.Optimal, c.MeanDepth)
		}
	}
	// Depth rows must be labeled in both renderings.
	var sb strings.Builder
	RenderFigure(&sb, fig)
	if !strings.Contains(sb.String(), "depth") {
		t.Error("text table missing the depth metric label")
	}
	sb.Reset()
	if err := RenderFigureCSV(&sb, fig); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), ",depth,") {
		t.Error("CSV rows missing the depth metric label")
	}
}

// SelectTools must reject unknown names with the registry listed,
// reject a repeated name, and resolve known subsets in the given order.
func TestSelectTools(t *testing.T) {
	all, err := SelectTools("", 2)
	if err != nil || len(all) != 4 {
		t.Fatalf("empty selection: %v, %d tools", err, len(all))
	}
	sub, err := SelectTools(" tket , lightsabre ", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(sub) != 2 || sub[0].Name != "tket" || sub[1].Name != "lightsabre" {
		t.Fatalf("subset = %+v", sub)
	}
	_, err = SelectTools("lightsabre,warpdrive", 2)
	if err == nil {
		t.Fatal("unknown tool accepted")
	}
	for _, name := range ToolNames() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list registered tool %s", err, name)
		}
	}
	_, err = SelectTools("tket, lightsabre ,tket", 2)
	if err == nil || !strings.Contains(err.Error(), `"tket"`) {
		t.Fatalf("repeated tool: err = %v, want an error naming tket", err)
	}
}
