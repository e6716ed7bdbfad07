package harness

import (
	"context"
	"errors"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/router"
	"repro/internal/sabre"
	"repro/internal/suite"
)

// chaosSpec wraps a fresh inner sabre in the given chaos mode per Make
// call, mirroring how real ToolSpecs construct per-run routers.
func chaosSpec(name string, mode chaos.Mode, mut func(*chaos.Router)) ToolSpec {
	return ToolSpec{Name: name, Make: func(seed int64) router.Router {
		r := &chaos.Router{
			Inner: sabre.New(sabre.Options{Trials: 1, Seed: seed}),
			Mode:  mode,
		}
		if mut != nil {
			mut(r)
		}
		return r
	}}
}

func healthySpec() ToolSpec {
	return ToolSpec{Name: "healthy", Make: func(seed int64) router.Router {
		return sabre.New(sabre.Options{Trials: 1, Seed: seed})
	}}
}

// Acceptance (a): a hang-until-cancel tool is cut off by the per-tool
// timeout and becomes an error row, while the healthy tool's rows — and
// the figure — still materialize.
func TestStoredEvalToolTimeoutIsolatesHangingTool(t *testing.T) {
	cfg := tinyCfg()
	store := openStore(t)
	st, err := store.Ensure(cfg.Manifest())
	if err != nil {
		t.Fatal(err)
	}
	tools := []ToolSpec{chaosSpec("hung", chaos.HangUntilCancel, nil), healthySpec()}

	var mu sync.Mutex
	rowErrs := map[string][]string{}
	fig, err := RunStoredEvalCtx(context.Background(), store, st, tools, StoredEvalOptions{
		Seed:        cfg.Seed,
		ToolTimeout: 100 * time.Millisecond,
		OnRow: func(r suite.Row) {
			mu.Lock()
			rowErrs[r.Tool] = append(rowErrs[r.Tool], r.Error)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatalf("a hung tool must not sink the sweep: %v", err)
	}
	n := cfg.Manifest().NumInstances()
	if got := len(rowErrs["hung"]); got != n {
		t.Fatalf("hung tool produced %d rows, want %d", got, n)
	}
	for _, e := range rowErrs["hung"] {
		if !strings.Contains(e, "timed out") {
			t.Errorf("hung tool row error = %q, want a timeout", e)
		}
	}
	for _, e := range rowErrs["healthy"] {
		if e != "" {
			t.Errorf("healthy tool row has error %q", e)
		}
	}
	for _, c := range fig.Cells {
		switch c.Tool {
		case "hung":
			if c.Failures == 0 || c.Circuits != 0 {
				t.Errorf("hung cell n=%d: circuits=%d failures=%d, want all failures", c.Optimal, c.Circuits, c.Failures)
			}
		case "healthy":
			if c.Failures != 0 || c.Circuits == 0 {
				t.Errorf("healthy cell n=%d: circuits=%d failures=%d, want no failures", c.Optimal, c.Circuits, c.Failures)
			}
		}
	}
}

// Acceptance (b): a panicking tool becomes a row error — never a process
// crash — and the rest of the sweep completes.
func TestStoredEvalPanicBecomesRowError(t *testing.T) {
	cfg := tinyCfg()
	store := openStore(t)
	st, err := store.Ensure(cfg.Manifest())
	if err != nil {
		t.Fatal(err)
	}
	tools := []ToolSpec{
		chaosSpec("bomb", chaos.Panic, func(r *chaos.Router) { r.PanicValue = "index out of range [-1]" }),
		healthySpec(),
	}

	var mu sync.Mutex
	rowErrs := map[string][]string{}
	fig, err := RunStoredEvalCtx(context.Background(), store, st, tools, StoredEvalOptions{
		Seed:    cfg.Seed,
		Workers: 2,
		OnRow: func(r suite.Row) {
			mu.Lock()
			rowErrs[r.Tool] = append(rowErrs[r.Tool], r.Error)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatalf("a panicking tool must not sink the sweep: %v", err)
	}
	n := cfg.Manifest().NumInstances()
	if got := len(rowErrs["bomb"]); got != n {
		t.Fatalf("panicking tool produced %d rows, want %d", got, n)
	}
	for _, e := range rowErrs["bomb"] {
		if !strings.Contains(e, "tool panicked") || !strings.Contains(e, "index out of range") {
			t.Errorf("panic row error = %q, want panic diagnosis", e)
		}
	}
	for _, c := range fig.Cells {
		if c.Tool == "healthy" && c.Circuits == 0 {
			t.Errorf("healthy cell n=%d lost its circuits to the bomb", c.Optimal)
		}
	}
}

// A tool that lies about its result must abort the sweep: an invalid
// result falsifies the suite's guarantee and may not be aggregated.
func TestStoredEvalWrongResultAborts(t *testing.T) {
	cfg := tinyCfg()
	store := openStore(t)
	st, err := store.Ensure(cfg.Manifest())
	if err != nil {
		t.Fatal(err)
	}
	tools := []ToolSpec{chaosSpec("liar", chaos.WrongResult, nil)}
	_, err = RunStoredEvalCtx(context.Background(), store, st, tools, StoredEvalOptions{Seed: cfg.Seed})
	if err == nil || !strings.Contains(err.Error(), "invalid result") {
		t.Fatalf("err = %v, want invalid-result abort", err)
	}
}

// Cancelling an in-flight stored evaluation aborts with the cause; rows
// already logged survive, and a later uncancelled run resumes off them
// to the complete figure with no duplicated work.
func TestStoredEvalCancelledMidRunResumes(t *testing.T) {
	cfg := tinyCfg()
	store := openStore(t)
	st, err := store.Ensure(cfg.Manifest())
	if err != nil {
		t.Fatal(err)
	}
	tools := []ToolSpec{healthySpec()}
	n := cfg.Manifest().NumInstances()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	first := 0
	_, err = RunStoredEvalCtx(ctx, store, st, tools, StoredEvalOptions{
		Seed: cfg.Seed,
		OnRow: func(suite.Row) {
			first++
			cancel() // abandon the sweep after the first durable row
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if first == 0 || first >= n {
		t.Fatalf("cancelled run logged %d rows, want in (0, %d)", first, n)
	}

	second := 0
	fig, err := RunStoredEvalCtx(context.Background(), store, st, tools, StoredEvalOptions{
		Seed:  cfg.Seed,
		OnRow: func(suite.Row) { second++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if first+second != n {
		t.Errorf("resume imbalance: %d + %d rows, want exactly %d", first, second, n)
	}
	for _, c := range fig.Cells {
		if c.Failures != 0 {
			t.Errorf("cell n=%d has %d failures after resume", c.Optimal, c.Failures)
		}
	}
}

// A cell whose every attempt failed has no gap to report: its gaps read
// zero rather than a sentinel, and the text table shows the failures.
func TestStoredEvalFailedCellReportsZeroGap(t *testing.T) {
	cfg := tinyCfg()
	store, st := ensureSuite(t, cfg)
	tools := []ToolSpec{chaosSpec("hung", chaos.HangUntilCancel, nil)}
	fig, err := RunStoredEvalCtx(context.Background(), store, st, tools, StoredEvalOptions{
		Seed:        cfg.Seed,
		ToolTimeout: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range fig.Cells {
		if c.Circuits != 0 || c.Failures != cfg.CircuitsPerCount ||
			c.MeanRatio != 0 || c.MinRatio != 0 || c.MaxRatio != 0 {
			t.Errorf("all-failed cell n=%d: %+v, want %d failures and zero gaps", c.Optimal, c, cfg.CircuitsPerCount)
		}
	}
	var sb strings.Builder
	RenderFigure(&sb, fig)
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if !strings.HasSuffix(lines[1], "failures") {
		t.Errorf("table header %q has no failures column", lines[1])
	}
	want := strconv.Itoa(cfg.CircuitsPerCount)
	for _, line := range lines[2:] {
		if f := strings.Fields(line); f[len(f)-1] != want || strings.Contains(line, "-1.00x") {
			t.Errorf("row %q: want zero gaps and %s failures", line, want)
		}
	}
}

// routeOne unit coverage: the Delay mode finishes under a generous
// timeout (slow is not dead), and an honest tool error stays a row-level
// outcome.
func TestRouteOneCtxOutcomes(t *testing.T) {
	cfg := tinyCfg()
	store, st := ensureSuite(t, cfg)
	it, _, err := loadItem(store, st, st.Instances[0])
	if err != nil {
		t.Fatal(err)
	}

	slow := chaosSpec("slow", chaos.Delay, func(r *chaos.Router) { r.Sleep = 5 * time.Millisecond })
	res, toolErr, err := routeOne(context.Background(), slow, it, cfg.Seed, 5*time.Second, nil)
	if err != nil || toolErr != "" || res == nil {
		t.Fatalf("slow tool under generous timeout: res=%v toolErr=%q err=%v", res, toolErr, err)
	}

	failing := chaosSpec("failing", chaos.Fail, nil)
	res, toolErr, err = routeOne(context.Background(), failing, it, cfg.Seed, 0, nil)
	if err != nil {
		t.Fatalf("honest tool error must stay row-level: %v", err)
	}
	if res != nil || !strings.Contains(toolErr, "injected tool failure") {
		t.Fatalf("res=%v toolErr=%q, want injected failure string", res, toolErr)
	}
}
