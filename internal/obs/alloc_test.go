package obs

import (
	"testing"
)

// The obs core's contract is that recording telemetry in steady state
// allocates nothing — the same 0 B/op discipline the router decision
// loops and the SAT solve loop are held to. These gates run as plain
// tests (CI's bench-smoke job runs them too) so a regression fails
// loudly, not just in a benchmark diff.

// TestSpanRecordingAllocs: beginning a span, attaching args, and ending
// it on a warm trace must not allocate.
func TestSpanRecordingAllocs(t *testing.T) {
	tr := New(1 << 12)
	// Warm up: first span may grow the free list.
	sp := tr.Root("eval", "cell")
	sp.End()
	avg := testing.AllocsPerRun(1000, func() {
		sp := tr.Root("eval", "cell")
		sp.Arg("tool", "lightsabre")
		sp.Arg("outcome", "ok")
		sp.ArgInt("optimal", 5)
		sp.End()
	})
	if avg != 0 {
		t.Errorf("span record allocates %.1f allocs/op, want 0", avg)
	}
}

// TestCounterAllocs: incrementing a counter through a cached CounterVec
// handle must not allocate.
func TestCounterAllocs(t *testing.T) {
	r := NewRegistry()
	handle := r.CounterVec("alloc_vec_total", "x", "result").With("hit")
	avg := testing.AllocsPerRun(1000, func() {
		handle.Inc()
		handle.Add(2)
	})
	if avg != 0 {
		t.Errorf("counter add allocates %.1f allocs/op, want 0", avg)
	}
}

// TestHistogramAllocs: observing into a cached HistogramVec child must
// not allocate.
func TestHistogramAllocs(t *testing.T) {
	r := NewRegistry()
	h := r.HistogramVec("alloc_hist_seconds", "x", nil, "route").With("eval")
	avg := testing.AllocsPerRun(1000, func() {
		h.Observe(0.042)
	})
	if avg != 0 {
		t.Errorf("histogram observe allocates %.1f allocs/op, want 0", avg)
	}
}

// BenchmarkSpanRecord is the -benchmem view of the same contract, for
// the bench-smoke job's 0 B/op re-check.
func BenchmarkSpanRecord(b *testing.B) {
	tr := New(1 << 12)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := tr.Root("eval", "cell")
		sp.Arg("tool", "lightsabre")
		sp.End()
	}
}
