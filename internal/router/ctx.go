package router

import (
	"context"

	"repro/internal/arch"
	"repro/internal/circuit"
)

// RouteWithContext prepares (c, dev) and routes it with r, letting the
// tool search for a placement. It is the plain entry point for callers
// that hold no shared Prepared.
func RouteWithContext(ctx context.Context, r Router, c *circuit.Circuit, dev *arch.Device) (*Result, error) {
	p, err := Prepare(c, dev)
	if err != nil {
		return nil, err
	}
	return r.Route(ctx, p, nil)
}

// RoutePreparedWithContext routes a shared Prepared with r, letting the
// tool search for a placement.
func RoutePreparedWithContext(ctx context.Context, r Router, p *Prepared) (*Result, error) {
	return r.Route(ctx, p, nil)
}

// ctxCheckInterval is how many Tick calls a CtxChecker lets pass between
// ctx.Err() polls. Decision loops tick once per iteration; a poll every
// 256 iterations keeps the cancellation latency of even the slowest
// loop (QMAP A* node expansion, ~µs/iteration) well under a
// millisecond while making the common-case cost of Tick a single
// decrement and branch.
const ctxCheckInterval = 256

// CtxChecker amortizes context-cancellation polling over the iterations
// of a hot decision loop. The zero value is inert (never reports
// cancellation, costs one branch per Tick), which lets engines embed it
// unconditionally: uncancellable entry points simply leave it zero.
//
// Reset installs a context; Tick is then called once per loop iteration
// and polls ctx.Err() every ctxCheckInterval ticks, caching a non-nil
// error so every later Tick and Err call reports cancellation
// immediately. A context that cannot fire (ctx.Done() == nil, e.g.
// context.Background()) disables polling entirely at Reset time, so the
// cancellable path stays zero-cost and allocation-free when no deadline
// is attached — the alloc-flatness and golden-corpus pins run through
// exactly this path.
//
// CtxChecker is a value type with no heap state; embedding it in an
// engine adds no allocations.
type CtxChecker struct {
	ctx       context.Context
	countdown int
	err       error
	armed     bool
}

// Reset points the checker at ctx and clears any cached error. A nil
// ctx, or one that can never be cancelled, disarms the checker.
func (c *CtxChecker) Reset(ctx context.Context) {
	c.err = nil
	c.countdown = ctxCheckInterval
	if ctx == nil || ctx.Done() == nil {
		c.ctx = nil
		c.armed = false
		return
	}
	c.ctx = ctx
	c.armed = true
}

// Tick records one loop iteration and reports whether the context has
// been cancelled. It polls the context only every ctxCheckInterval
// ticks; once cancellation is observed it is latched and every
// subsequent Tick returns true.
func (c *CtxChecker) Tick() bool {
	if !c.armed {
		return false
	}
	if c.err != nil {
		return true
	}
	c.countdown--
	if c.countdown > 0 {
		return false
	}
	c.countdown = ctxCheckInterval
	if err := c.ctx.Err(); err != nil {
		c.err = err
		return true
	}
	return false
}

// Err returns the latched cancellation cause, polling the context once
// more if nothing is latched yet (so callers that observed Tick()==true
// — or want a final answer at loop exit — always get the real
// ctx.Err()). Returns nil when the checker is disarmed or the context
// is still live.
func (c *CtxChecker) Err() error {
	if !c.armed {
		return nil
	}
	if c.err == nil {
		c.err = c.ctx.Err()
	}
	return c.err
}
