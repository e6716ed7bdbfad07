package harness

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/router"
)

// EvalConfig carries the runtime knobs of an evaluation sweep that are
// orthogonal to what is evaluated: the tool-constructor seed and the
// fault-isolation budget.
type EvalConfig struct {
	// Seed feeds each tool's constructor (offset per router.Guard's schedule).
	Seed int64
	// ToolTimeout bounds each single (tool, instance) routing attempt.
	// Zero means no per-tool deadline: only the caller's context limits
	// the run.
	ToolTimeout time.Duration
	// Workers is the sweep's total worker-slot budget, covering both the
	// evaluation loop itself and any router-internal parallelism
	// (router.BudgetedRouter tools borrow the idle remainder). 0 means
	// GOMAXPROCS. The budget changes wall-clock time only, never results.
	Workers int
}

// sweepBudget builds the shared worker budget for a sweep that keeps
// `reserved` slots busy by itself out of a total of `total` (0 =
// GOMAXPROCS). Budgeted routers borrow from what remains.
func sweepBudget(total, reserved int) *pool.Budget {
	if total <= 0 {
		total = runtime.GOMAXPROCS(0)
	}
	return pool.NewBudget(total - reserved)
}

// routeOne routes one tool on one item through router.Guard under a
// traced "eval"/"cell" span. Three outcome classes keep a sweep alive:
//
//   - tool failure, timeout, or panic → (nil, reason, nil): an
//     aggregable per-row error;
//   - caller cancellation → a hard error, because the whole sweep is
//     being abandoned and partial figures should not pretend otherwise;
//   - an invalid or optimum-beating result → a hard error, because it
//     falsifies the suite's guarantee.
func routeOne(ctx context.Context, tool ToolSpec, it EvalItem, seed int64, toolTimeout time.Duration, budget *pool.Budget) (*router.Result, string, error) {
	if err := ctx.Err(); err != nil {
		return nil, "", err
	}
	sp, ctx := obs.Begin(ctx, "eval", "cell")
	defer sp.End()
	sp.Arg("tool", tool.Name)
	sp.Arg("instance", it.ID)
	p := it.prep
	if p == nil {
		var err error
		if p, err = router.Prepare(it.Circuit, it.Device); err != nil {
			sp.Arg("outcome", router.OutcomeError)
			return nil, err.Error(), nil
		}
	}
	out := router.Guard(ctx, router.Attempt{
		Tool:     tool.Name,
		Make:     tool.Make,
		Seed:     seed,
		Prepared: p,
		Timeout:  toolTimeout,
		Budget:   budget,
		Score:    it.Metric.Achieved,
		Optimal:  it.Optimal,
		Span:     &sp,
	})
	switch out.Kind {
	case router.OutcomeOK:
		return out.Result, "", nil
	case router.OutcomeCancelled:
		return nil, "", out.Err
	case router.OutcomeInvalid:
		return nil, "", fmt.Errorf("harness: %s on %s (%s): %w", tool.Name, it.Device.Name(), it.ID, out.Err)
	}
	return nil, out.Err.Error(), nil
}
