package pool

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestBudgetAcquireRelease(t *testing.T) {
	b := NewBudget(4)
	if got := b.TryAcquire(3); got != 3 {
		t.Fatalf("TryAcquire(3)=%d on a fresh budget of 4", got)
	}
	if got := b.TryAcquire(3); got != 1 {
		t.Fatalf("TryAcquire(3)=%d with 1 idle, want 1", got)
	}
	if got := b.TryAcquire(1); got != 0 {
		t.Fatalf("TryAcquire(1)=%d on an empty budget, want 0", got)
	}
	b.Release(4)
	if got := b.Idle(); got != 4 {
		t.Fatalf("Idle()=%d after full release, want 4", got)
	}
	if got := NewBudget(-3).TryAcquire(1); got != 0 {
		t.Fatalf("negative-capacity budget lent %d slots", got)
	}
	if got := NewBudget(2).TryAcquire(0); got != 0 {
		t.Fatalf("TryAcquire(0)=%d, want 0", got)
	}
}

func TestBudgetNeverOverLends(t *testing.T) {
	// Hammer one budget from many goroutines; the outstanding total must
	// never exceed capacity. Run under -race this also checks the
	// counter's publication story.
	const capacity = 8
	b := NewBudget(capacity)
	var outstanding, peak int64
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				got := b.TryAcquire(1 + (seed+i)%4)
				if got == 0 {
					continue
				}
				cur := atomic.AddInt64(&outstanding, int64(got))
				if cur > capacity {
					t.Errorf("%d slots outstanding, capacity %d", cur, capacity)
				}
				for {
					p := atomic.LoadInt64(&peak)
					if cur <= p || atomic.CompareAndSwapInt64(&peak, p, cur) {
						break
					}
				}
				atomic.AddInt64(&outstanding, -int64(got))
				b.Release(got)
			}
		}(w)
	}
	wg.Wait()
	if b.Idle() != capacity {
		t.Fatalf("Idle()=%d after all releases, want %d", b.Idle(), capacity)
	}
	if peak == 0 {
		t.Fatal("no goroutine ever acquired a slot; test proves nothing")
	}
}
