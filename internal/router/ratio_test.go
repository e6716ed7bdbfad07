package router_test

import (
	"testing"

	"repro/internal/family"
	"repro/internal/router"
)

// TestSwapRatio checks the paper's optimality-gap metric on a routed
// result: achieved SWAP count over the known optimal count, as
// family.Swaps scores every routed instance.
func TestSwapRatio(t *testing.T) {
	ratio := func(swaps, optimal int) float64 {
		res := &router.Result{SwapCount: swaps}
		return family.Swaps.Ratio(family.Swaps.Achieved(res), optimal)
	}
	if r := ratio(10, 5); r != 2 {
		t.Errorf("ratio=%v want 2", r)
	}
	if r := ratio(5, 5); r != 1 {
		t.Errorf("ratio=%v want 1", r)
	}
	defer func() {
		if recover() == nil {
			t.Error("zero optimal should panic")
		}
	}()
	ratio(1, 0)
}
