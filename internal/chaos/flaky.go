package chaos

import "sync/atomic"

// FlakyGate counts attempts and fails the first N of them — the shared
// state behind FailFirstN mode, which one gate can drive across races
// and requests in breaker tests. The zero value never fails;
// NewFlakyGate(n) fails the first n calls to Fail.
type FlakyGate struct {
	n     int64
	count atomic.Int64
}

// NewFlakyGate returns a gate whose first n Fail calls report true.
func NewFlakyGate(n int) *FlakyGate {
	return &FlakyGate{n: int64(n)}
}

// Fail records one attempt and reports whether it should fail. Safe for
// concurrent use; exactly the first n attempts across all users fail.
func (g *FlakyGate) Fail() bool {
	if g == nil {
		return false
	}
	return g.count.Add(1) <= g.n
}

// Attempts returns how many times Fail has been consulted.
func (g *FlakyGate) Attempts() int {
	if g == nil {
		return 0
	}
	return int(g.count.Load())
}
