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

// sweepBudget builds the shared worker budget for a sweep that keeps
// `reserved` slots busy by itself out of GOMAXPROCS. Budgeted routers
// borrow from what remains.
func sweepBudget(reserved int) *pool.Budget {
	return pool.NewBudget(runtime.GOMAXPROCS(0) - reserved)
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
		Initial:  it.initial,
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
