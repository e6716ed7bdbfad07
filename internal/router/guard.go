package router

import (
	"context"
	"fmt"
	"log"
	"runtime/debug"
	"time"

	"repro/internal/obs"
	"repro/internal/pool"
)

// Outcome classes of a guarded routing attempt. They double as the
// "outcome" span label of evaluation cells and portfolio racers.
const (
	OutcomeOK        = "ok"        // validated result produced
	OutcomeError     = "error"     // tool returned an error
	OutcomeTimeout   = "timeout"   // the attempt's own timeout expired
	OutcomePanic     = "panic"     // tool panicked (contained)
	OutcomeInvalid   = "invalid"   // result failed the audit or beat the optimum
	OutcomeCancelled = "cancelled" // the caller's context ended first
)

// makeSeedOffset is the evaluation schedule's constructor offset: a
// guarded attempt builds its tool from Make(Seed+makeSeedOffset), so a
// portfolio racer and an evaluation cell with the same seed route with
// identically seeded tools.
const makeSeedOffset = 7919

// Attempt is one fault-isolated routing run for Guard.
type Attempt struct {
	// Tool names the tool in the panic log.
	Tool string
	// Make builds a fresh tool from Seed+makeSeedOffset. It runs inside
	// the guarded goroutine, so a panicking constructor is contained too.
	Make func(seed int64) Router
	Seed int64
	// Prepared is the instance.
	Prepared *Prepared
	// Initial is Route's start mapping: nil lets the tool search its own
	// placement, a non-nil mapping is padded and pinned.
	Initial Mapping
	// Timeout bounds the attempt; 0 leaves only the caller's context.
	Timeout time.Duration
	// Budget, when non-nil, is lent to a BudgetedRouter tool.
	Budget *pool.Budget
	// Score scores a validated result in the metric of Optimal, the
	// instance's proven optimum. A score below a positive Optimal
	// falsifies the proof, so the result is classified invalid.
	Score   func(*Result) int
	Optimal int
	// Span receives the tool's Counters and the outcome.
	Span *obs.Span
}

// Outcome is a guarded attempt's verdict.
type Outcome struct {
	// Kind is one of the Outcome* classes.
	Kind string
	// Result and Score are set for OutcomeOK only.
	Result *Result
	Score  int
	// Err explains every other class; for OutcomeCancelled it is the
	// caller's ctx.Err().
	Err error
}

// toolReturn carries the tool goroutine's return across the guard.
type toolReturn struct {
	r        Router
	res      *Result
	err      error
	panicVal any
	stack    []byte
}

// Guard runs one tool on one instance in its own goroutine, so neither a
// panic nor a hang can take the caller down with it. The tool routes
// under ctx plus a.Timeout; its result is audited with Validate and the
// optimum check before it may count as OutcomeOK. A panic is logged
// once, with its stack. A tool still running when its context ends is
// abandoned: a cooperative tool unwinds at its next context check, a
// wedged one leaks its goroutine — the price of isolation without
// preemption. The evaluation harness and the portfolio race both route
// through Guard, so every path audits results the same way.
func Guard(ctx context.Context, a Attempt) (out Outcome) {
	sp := a.Span
	defer func() { sp.Arg("outcome", out.Kind) }()
	if err := ctx.Err(); err != nil {
		return Outcome{Kind: OutcomeCancelled, Err: err}
	}
	toolCtx, cancel := ctx, context.CancelFunc(func() {})
	if a.Timeout > 0 {
		toolCtx, cancel = context.WithTimeout(ctx, a.Timeout)
	}
	defer cancel()

	ch := make(chan toolReturn, 1)
	go func() {
		var ret toolReturn
		defer func() {
			if v := recover(); v != nil {
				ret.panicVal, ret.stack = v, debug.Stack()
			}
			ch <- ret
		}()
		ret.r = a.Make(a.Seed + makeSeedOffset)
		if br, ok := ret.r.(BudgetedRouter); ok && a.Budget != nil {
			br.SetWorkerBudget(a.Budget)
		}
		ret.res, ret.err = ret.r.Route(toolCtx, a.Prepared, a.Initial)
	}()

	timedOut := Outcome{Kind: OutcomeTimeout, Err: fmt.Errorf("tool timed out after %v", a.Timeout)}
	var ret toolReturn
	select {
	case ret = <-ch:
	case <-toolCtx.Done():
		if err := ctx.Err(); err != nil {
			return Outcome{Kind: OutcomeCancelled, Err: err}
		}
		return timedOut
	}
	if ret.stack != nil {
		log.Printf("router: tool %s panicked on %s: %v\n%s", a.Tool, a.Prepared.Device.Name(), ret.panicVal, ret.stack)
		return Outcome{Kind: OutcomePanic, Err: fmt.Errorf("tool panicked: %v", ret.panicVal)}
	}
	if ins, ok := ret.r.(Instrumented); ok {
		c := ins.Counters()
		sp.ArgInt("decisions", c.Decisions)
		sp.ArgInt("candidates", c.Candidates)
		sp.ArgInt("restarts", c.Restarts)
	}
	if ret.err != nil {
		if err := ctx.Err(); err != nil {
			return Outcome{Kind: OutcomeCancelled, Err: err}
		}
		if toolCtx.Err() != nil {
			// The timeout fired inside the tool and it unwound on its own
			// before the select noticed.
			return timedOut
		}
		return Outcome{Kind: OutcomeError, Err: ret.err}
	}
	p := a.Prepared
	if err := Validate(p.Circuit, p.Device, ret.res); err != nil {
		return Outcome{Kind: OutcomeInvalid, Err: fmt.Errorf("invalid result: %w", err)}
	}
	score := a.Score(ret.res)
	if a.Optimal > 0 && score < a.Optimal {
		return Outcome{Kind: OutcomeInvalid,
			Err: fmt.Errorf("invalid result: scores %d, below the proven optimum %d", score, a.Optimal)}
	}
	return Outcome{Kind: OutcomeOK, Result: ret.res, Score: score}
}
