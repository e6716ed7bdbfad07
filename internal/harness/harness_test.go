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
	sb.Reset()
	RenderFigureCSV(&sb, fig)
	if !strings.Contains(sb.String(), "device,tool,metric,optimal") {
		t.Error("CSV header missing")
	}
	lines := strings.Count(sb.String(), "\n")
	if lines != 1+len(fig.Cells) {
		t.Errorf("CSV lines=%d want %d", lines, 1+len(fig.Cells))
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

func TestCaseStudyRuns(t *testing.T) {
	cfg := DefaultCaseStudyConfig()
	cfg.Instances = 3
	cfg.TargetTwoQubitGates = 120
	cfg.DecaySweep = []float64{0, 0.8}
	res, err := RunCaseStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Instances != 3 {
		t.Fatalf("instances=%d", res.Instances)
	}
	if res.MeanRatio < 1 {
		t.Errorf("mean ratio %.2f < 1", res.MeanRatio)
	}
	if len(res.DecayLines) != 2 {
		t.Fatalf("decay lines=%d", len(res.DecayLines))
	}
	var sb strings.Builder
	RenderCaseStudy(&sb, res)
	if !strings.Contains(sb.String(), "lookahead-decay ablation") {
		t.Error("case study rendering incomplete")
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

func TestSectionIIIC(t *testing.T) {
	res, err := RunSectionIIIC(arch.RigettiAspen4(), 4, 120, 3, 17)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows=%d", len(res.Rows))
	}
	if res.MinSegments < 5 { // OptSwaps+1
		t.Errorf("min segments %d, want >= 5 (one boundary per special)", res.MinSegments)
	}
	if res.MeanRatio < 1 {
		t.Errorf("mean ratio %.2f < 1", res.MeanRatio)
	}
	var sb strings.Builder
	RenderSectionIIIC(&sb, res)
	if !strings.Contains(sb.String(), "Section III-C") {
		t.Error("render header missing")
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
	RenderFigureCSV(&sb, fig)
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
