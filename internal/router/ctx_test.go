package router

import (
	"context"
	"errors"
	"testing"
)

func TestCtxCheckerZeroValueInert(t *testing.T) {
	var c CtxChecker
	for i := 0; i < 3*ctxCheckInterval; i++ {
		if c.Tick() {
			t.Fatal("zero-value CtxChecker reported cancellation")
		}
	}
	if c.Err() != nil {
		t.Fatal("zero-value CtxChecker has a non-nil Err")
	}
}

func TestCtxCheckerBackgroundDisarmed(t *testing.T) {
	var c CtxChecker
	c.Reset(context.Background())
	if c.armed {
		t.Fatal("checker armed on an uncancellable context")
	}
	for i := 0; i < 3*ctxCheckInterval; i++ {
		if c.Tick() {
			t.Fatal("background-context checker reported cancellation")
		}
	}
}

func TestCtxCheckerDetectsAndLatchesCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var c CtxChecker
	c.Reset(ctx)
	for i := 0; i < ctxCheckInterval; i++ {
		if c.Tick() {
			t.Fatal("cancellation reported before cancel")
		}
	}
	cancel()
	fired := false
	for i := 0; i < 2*ctxCheckInterval && !fired; i++ {
		fired = c.Tick()
	}
	if !fired {
		t.Fatal("cancellation never observed within one poll interval")
	}
	// Latched: every later tick reports immediately.
	if !c.Tick() {
		t.Fatal("cancellation not latched")
	}
	if !errors.Is(c.Err(), context.Canceled) {
		t.Fatalf("Err() = %v, want context.Canceled", c.Err())
	}
}

func TestCtxCheckerErrPollsWithoutTick(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var c CtxChecker
	c.Reset(ctx)
	if !errors.Is(c.Err(), context.Canceled) {
		t.Fatalf("Err() = %v, want context.Canceled without any Tick", c.Err())
	}
}

func TestCtxCheckerResetClearsLatch(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var c CtxChecker
	c.Reset(ctx)
	if c.Err() == nil {
		t.Fatal("expected latched error")
	}
	c.Reset(context.Background())
	if c.Tick() || c.Err() != nil {
		t.Fatal("Reset did not clear the latched cancellation")
	}
}

func TestCtxCheckerTickAllocFree(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var c CtxChecker
	c.Reset(ctx)
	if a := testing.AllocsPerRun(1000, func() { c.Tick() }); a != 0 {
		t.Fatalf("Tick allocates %.1f objects, want 0", a)
	}
}
