// Package pool provides the bounded fail-fast worker pool shared by the
// repository's fan-out paths: suite generation, stored-suite evaluation,
// and exact certification. One implementation keeps the semantics
// identical everywhere — work is handed out by an atomic index (no
// per-item goroutine), after the first error no new indices are
// dispatched, and the lowest-indexed error is returned so outcomes are
// deterministic regardless of scheduling. A panic inside fn is recovered
// and reported as that index's error rather than crashing the process,
// so a bad work item in a long-lived server degrades to a failed job.
package pool

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// PanicError is the error a recovered fn panic is reported as. Value is
// the recovered panic value; Stack is the goroutine stack captured at
// recovery, which callers may log for diagnosis (Error() omits it to
// keep wrapped messages bounded).
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("panic: %v", e.Value)
}

// call invokes fn(i), converting a panic into a *PanicError.
func call(fn func(i int) error, i int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	return fn(i)
}

// ParallelForCtx runs fn(0) … fn(n-1) over at most workers goroutines.
// workers <= 1 runs serially. After any fn returns an error, no new
// indices are dispatched (in-flight calls complete); the error with the
// lowest index is returned. A panicking fn is recovered into a
// *PanicError for its index under the same rules. Callers that want to
// attempt every index regardless should record failures themselves and
// return nil from fn. Once ctx is done, no new indices are dispatched
// either, and ctx.Err() is returned unless an fn error with a lower index
// already occurred. fn itself is not interrupted — pass ctx into fn when
// the work should also stop mid-item.
func ParallelForCtx(ctx context.Context, n, workers int, fn func(i int) error) error {
	if workers > n {
		workers = n
	}
	done := ctx.Done()
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if done != nil {
				select {
				case <-done:
					return ctx.Err()
				default:
				}
			}
			if err := call(fn, i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var failed atomic.Bool
	var cancelled atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				if done != nil {
					select {
					case <-done:
						cancelled.Store(true)
						return
					default:
					}
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if errs[i] = call(fn, i); errs[i] != nil {
					failed.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if cancelled.Load() {
		return ctx.Err()
	}
	return nil
}
