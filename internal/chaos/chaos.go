// Package chaos injects controlled faults into the evaluation pipeline
// so its isolation guarantees can be proven rather than assumed. The
// fault menagerie mirrors how real tools and real filesystems misbehave:
// a Router that is slow, hangs until cancelled, panics, lies about its
// result, or errors outright; and file-level helpers that tear files the
// way a crash mid-write does. Production code never imports this
// package — it exists for the fault-injection test suites in harness,
// suite, and server.
package chaos

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/router"
)

// Mode selects the fault a Router injects before (or instead of)
// delegating to its inner tool.
type Mode int

const (
	// Pass delegates untouched — the control case.
	Pass Mode = iota
	// Delay sleeps Sleep before delegating, honouring cancellation
	// during the sleep. Models a slow-but-correct tool.
	Delay
	// HangUntilCancel blocks until the context fires (or Release is
	// closed), never producing a result. Models a wedged tool: the only
	// way past it is a deadline.
	HangUntilCancel
	// Panic panics with PanicValue. Models a tool bug; the harness must
	// convert it into a row error, never a process crash.
	Panic
	// WrongResult delegates, then corrupts the result's SwapCount so it
	// no longer matches the inserted SWAPs. Models a lying tool; the
	// harness's audit must catch it.
	WrongResult
	// Fail returns Err without routing. Models an honest tool error.
	Fail
	// FailFirstN errors (with Err) for the first N calls recorded by
	// FirstN, then delegates cleanly. Models a flaky tool that recovers —
	// the shape circuit-breaker half-open probes must survive.
	FailFirstN
)

// ErrInjected is the default error returned by Fail mode.
var ErrInjected = errors.New("chaos: injected tool failure")

// ErrReleased reports a HangUntilCancel hang that was broken by Release
// rather than by cancellation (the escape hatch for exercising an
// uncancellable context without wedging the test binary).
var ErrReleased = errors.New("chaos: hang released without cancellation")

// Router wraps an inner QLS tool with one injected fault. It is a
// router.Router like any real tool, so it passes through the same guard.
type Router struct {
	Inner router.Router
	Mode  Mode
	// Sleep is Delay's duration.
	Sleep time.Duration
	// PanicValue is what Panic mode panics with; nil panics with a
	// recognizable default.
	PanicValue any
	// Err is what Fail mode returns; nil returns ErrInjected.
	Err error
	// Release, when non-nil, is a second way out of HangUntilCancel:
	// closing it makes the hang return ErrReleased. A nil Release hangs
	// until the context fires — with an uncancellable context, forever,
	// exactly like the wedged tool it models.
	Release <-chan struct{}
	// FirstN drives FailFirstN mode. It is shared, not per-Router: the
	// breaker tests hand the same gate to every Make call so the flake
	// count survives across fresh per-race Router instances.
	FirstN *FlakyGate
}

// Name labels the wrapper with its inner tool so chaos rows are
// recognizable in logs and figures.
func (r *Router) Name() string { return "chaos(" + r.Inner.Name() + ")" }

// fault runs the injected fault. A nil return means "now delegate".
func (r *Router) fault(ctx context.Context) error {
	switch r.Mode {
	case Delay:
		t := time.NewTimer(r.Sleep)
		defer t.Stop()
		select {
		case <-t.C:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	case HangUntilCancel:
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-r.Release:
			return ErrReleased
		}
	case Panic:
		v := r.PanicValue
		if v == nil {
			v = "chaos: injected panic"
		}
		panic(v)
	case Fail:
		if r.Err != nil {
			return r.Err
		}
		return ErrInjected
	case FailFirstN:
		if r.FirstN.Fail() {
			if r.Err != nil {
				return r.Err
			}
			return ErrInjected
		}
	}
	return nil
}

// corrupt applies WrongResult's lie: a SwapCount that disagrees with
// the transpiled circuit, which router.Validate must reject.
func (r *Router) corrupt(res *router.Result) *router.Result {
	if r.Mode != WrongResult || res == nil {
		return res
	}
	bad := *res
	bad.SwapCount++
	return &bad
}

// Route implements router.Router: the injected fault first, then the
// inner tool. An injected hang with no Release under a context that
// cannot fire blocks forever, as a wedged tool would.
func (r *Router) Route(ctx context.Context, p *router.Prepared, initial router.Mapping) (*router.Result, error) {
	if err := r.fault(ctx); err != nil {
		return nil, fmt.Errorf("%s: %w", r.Name(), err)
	}
	res, err := r.Inner.Route(ctx, p, initial)
	return r.corrupt(res), err
}
