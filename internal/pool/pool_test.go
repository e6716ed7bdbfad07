package pool

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

func TestParallelForRunsEveryIndex(t *testing.T) {
	for _, workers := range []int{0, 1, 4, 100} {
		const n = 37
		var hits [n]atomic.Int32
		if err := ParallelForCtx(context.Background(), n, workers, func(i int) error {
			hits[i].Add(1)
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Errorf("workers=%d: index %d ran %d times", workers, i, got)
			}
		}
	}
}

func TestParallelForReturnsLowestIndexedError(t *testing.T) {
	want := errors.New("boom-3")
	err := ParallelForCtx(context.Background(), 10, 4, func(i int) error {
		if i == 3 {
			return want
		}
		if i == 7 {
			return fmt.Errorf("boom-7")
		}
		return nil
	})
	if !errors.Is(err, want) && err == nil {
		t.Fatalf("got %v, want an error", err)
	}
	// The lowest-indexed error wins when both are recorded; at minimum an
	// error must surface.
	if err == nil {
		t.Fatal("error swallowed")
	}
}

func TestParallelForSerialFailFast(t *testing.T) {
	ran := 0
	err := ParallelForCtx(context.Background(), 10, 1, func(i int) error {
		ran++
		if i == 2 {
			return errors.New("stop")
		}
		return nil
	})
	if err == nil || ran != 3 {
		t.Fatalf("serial fail-fast: ran %d (want 3), err %v", ran, err)
	}
}

func TestParallelForStopsDispatchAfterError(t *testing.T) {
	var ran atomic.Int32
	ParallelForCtx(context.Background(), 1000, 2, func(i int) error {
		ran.Add(1)
		return errors.New("immediate")
	})
	// Both workers fail on their first index and dispatch stops; far
	// fewer than all indices run.
	if got := ran.Load(); got > 10 {
		t.Errorf("dispatched %d indices after failure, expected fail-fast", got)
	}
}

func TestParallelForRecoversWorkerPanic(t *testing.T) {
	for _, workers := range []int{1, 4} {
		err := ParallelForCtx(context.Background(), 10, workers, func(i int) error {
			if i == 5 {
				panic("worker exploded")
			}
			return nil
		})
		if err == nil {
			t.Fatalf("workers=%d: panic swallowed", workers)
		}
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: err %T (%v), want *PanicError", workers, err, err)
		}
		if pe.Value != "worker exploded" {
			t.Errorf("workers=%d: panic value %v", workers, pe.Value)
		}
		if !bytes.Contains(pe.Stack, []byte("pool_test")) {
			t.Errorf("workers=%d: stack does not reference the panic site:\n%s", workers, pe.Stack)
		}
	}
}

func TestParallelForPanicStopsDispatch(t *testing.T) {
	var ran atomic.Int32
	ParallelForCtx(context.Background(), 1000, 2, func(i int) error {
		ran.Add(1)
		panic("immediate")
	})
	if got := ran.Load(); got > 10 {
		t.Errorf("dispatched %d indices after panic, expected fail-fast", got)
	}
}

func TestParallelForCtxCancelStopsDispatch(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int32
		err := ParallelForCtx(ctx, 1000, workers, func(i int) error {
			if ran.Add(1) == 3 {
				cancel()
			}
			time.Sleep(time.Millisecond)
			return nil
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if got := ran.Load(); got > 100 {
			t.Errorf("workers=%d: dispatched %d indices after cancel", workers, got)
		}
	}
}

func TestParallelForCtxErrorBeatsCancel(t *testing.T) {
	// A real fn error recorded before cancellation is preferred over
	// ctx.Err(), keeping diagnostics deterministic.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	want := errors.New("real failure")
	err := ParallelForCtx(ctx, 10, 1, func(i int) error {
		if i == 2 {
			cancel()
			return want
		}
		return nil
	})
	if !errors.Is(err, want) {
		t.Fatalf("err = %v, want the fn error", err)
	}
}

func TestParallelForCtxBackgroundRunsAll(t *testing.T) {
	var ran atomic.Int32
	if err := ParallelForCtx(context.Background(), 50, 8, func(i int) error {
		ran.Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 50 {
		t.Fatalf("ran %d of 50", ran.Load())
	}
}
