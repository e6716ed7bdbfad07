package router_test

import (
	"bytes"
	"context"
	"log"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/chaos"
	"repro/internal/obs"
	"repro/internal/router"
	"repro/internal/sabre"
)

// TestGuardClassifiesEveryOutcome drives each of the guard's six
// verdicts with a chaos wrapper around a real tool.
func TestGuardClassifiesEveryOutcome(t *testing.T) {
	dev := arch.Grid3x3()
	p, err := router.Prepare(conformCircuit(), dev)
	if err != nil {
		t.Fatal(err)
	}
	base, err := router.RoutePreparedWithContext(context.Background(), sabre.New(sabre.Options{Trials: 1, Seed: 1}), p)
	if err != nil {
		t.Fatal(err)
	}
	swaps := func(res *router.Result) int { return res.SwapCount }
	mk := func(mode chaos.Mode) func(int64) router.Router {
		return func(int64) router.Router {
			return &chaos.Router{Inner: sabre.New(sabre.Options{Trials: 1, Seed: 1}), Mode: mode}
		}
	}
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	cases := []struct {
		name    string
		ctx     context.Context
		mode    chaos.Mode
		timeout time.Duration
		optimal int
		want    string
		errHas  string
	}{
		{"ok", context.Background(), chaos.Pass, 0, base.SwapCount, router.OutcomeOK, ""},
		{"error", context.Background(), chaos.Fail, 0, 0, router.OutcomeError, "injected tool failure"},
		{"timeout", context.Background(), chaos.HangUntilCancel, 20 * time.Millisecond, 0, router.OutcomeTimeout, "timed out"},
		{"panic", context.Background(), chaos.Panic, 0, 0, router.OutcomePanic, "tool panicked"},
		{"cancelled", dead, chaos.Pass, 0, 0, router.OutcomeCancelled, "canceled"},
		{"invalid", context.Background(), chaos.WrongResult, 0, 0, router.OutcomeInvalid, "invalid result"},
		{"beats-optimum", context.Background(), chaos.Pass, 0, base.SwapCount + 1, router.OutcomeInvalid, "below the proven optimum"},
	}
	var logged bytes.Buffer
	log.SetOutput(&logged)
	defer log.SetOutput(os.Stderr)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := obs.New(4)
			sp := tr.Root("test", "attempt")
			out := router.Guard(tc.ctx, router.Attempt{
				Tool: "t", Make: mk(tc.mode), Seed: 1, Prepared: p,
				Timeout: tc.timeout, Score: swaps, Optimal: tc.optimal, Span: &sp,
			})
			sp.End()
			if out.Kind != tc.want {
				t.Fatalf("outcome %q (err %v), want %q", out.Kind, out.Err, tc.want)
			}
			if tc.want == router.OutcomeOK {
				if out.Result == nil || out.Score != base.SwapCount || out.Err != nil {
					t.Fatalf("ok verdict: result=%v score=%d err=%v, want the tool's result scoring %d",
						out.Result, out.Score, out.Err, base.SwapCount)
				}
			} else if out.Result != nil || out.Err == nil || !strings.Contains(out.Err.Error(), tc.errHas) {
				t.Fatalf("%s verdict: result=%v err=%v, want no result and an error mentioning %q",
					tc.want, out.Result, out.Err, tc.errHas)
			}
			var sb strings.Builder
			if err := tr.WriteChrome(&sb); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(sb.String(), `"outcome":"`+tc.want+`"`) {
				t.Errorf("span lacks the outcome label: %s", sb.String())
			}
		})
	}
	if n := strings.Count(logged.String(), "panicked on"); n != 1 || !strings.Contains(logged.String(), "runtime/debug.Stack") {
		t.Errorf("log holds %d panic reports, want exactly one with its stack:\n%s", n, logged.String())
	}
}
