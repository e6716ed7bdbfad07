package portfolio

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/chaos"
	"repro/internal/obs"
	"repro/internal/qubikos"
	"repro/internal/router"
	"repro/internal/sabre"
)

// prep builds one small known-optimal instance for every race in the
// suite: real routing, real validation, proven optimum.
func prep(t *testing.T) (*router.Prepared, int) {
	t.Helper()
	dev := arch.Grid3x3()
	b, err := qubikos.Generate(dev, qubikos.Options{
		NumSwaps:            2,
		TargetTwoQubitGates: 20,
		MaxTwoQubitGates:    40,
		PreferHighDegree:    true,
		Seed:                7,
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := router.Prepare(b.Circuit, dev)
	if err != nil {
		t.Fatal(err)
	}
	return p, b.OptSwaps
}

func healthyEntry(name string, tier, trials int) Entry {
	return Entry{Name: name, Tier: tier, Make: func(seed int64) router.Router {
		return sabre.New(sabre.Options{Trials: trials, Seed: seed})
	}}
}

// chaosEntry wraps a fresh chaos router per race, like real ToolSpecs.
func chaosEntry(name string, tier int, mode chaos.Mode, mut func(*chaos.Router)) Entry {
	return Entry{Name: name, Tier: tier, Make: func(seed int64) router.Router {
		r := &chaos.Router{
			Inner: sabre.New(sabre.Options{Trials: 1, Seed: seed}),
			Mode:  mode,
		}
		if mut != nil {
			mut(r)
		}
		return r
	}}
}

func racerByTool(t *testing.T, res *Result, tool string) Racer {
	t.Helper()
	for _, r := range res.Racers {
		if r.Tool == tool {
			return r
		}
	}
	t.Fatalf("no racer report for %q in %+v", tool, res.Racers)
	return Racer{}
}

// Same seed, same tools, deadline and win conditions disabled: the race
// must settle on the same winner with the same score every time.
func TestRunDeterministicWinner(t *testing.T) {
	p, _ := prep(t)
	entries := []Entry{healthyEntry("a", 0, 1), healthyEntry("b", 0, 2)}
	first, err := Run(context.Background(), p, entries, Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if first.Reason != ReasonComplete {
		t.Fatalf("reason = %q, want %q", first.Reason, ReasonComplete)
	}
	for i := 0; i < 3; i++ {
		again, err := Run(context.Background(), p, entries, Options{Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		if again.Tool != first.Tool || again.Score != first.Score {
			t.Fatalf("run %d winner = %s/%d, first run was %s/%d",
				i, again.Tool, again.Score, first.Tool, first.Score)
		}
	}
}

// Anytime semantics: when the deadline fires with one tool hung, the
// healthy tool's validated result is returned as a degradation, and the
// hung racer is reported (and charged) as a timeout.
func TestRunDeadlineReturnsBestSoFar(t *testing.T) {
	p, _ := prep(t)
	entries := []Entry{
		chaosEntry("hung", 0, chaos.HangUntilCancel, nil),
		healthyEntry("healthy", 0, 1),
	}
	breakers := NewBreakerSet(BreakerConfig{TripAfter: 1})
	res, err := Run(context.Background(), p, entries, Options{
		Deadline: 400 * time.Millisecond,
		Seed:     11,
		Breakers: breakers,
	})
	if err != nil {
		t.Fatalf("deadline with a valid result in hand must degrade, not error: %v", err)
	}
	if !res.DeadlineHit || res.Reason != ReasonDeadline {
		t.Fatalf("DeadlineHit=%v reason=%q, want deadline degradation", res.DeadlineHit, res.Reason)
	}
	if res.Tool != "healthy" || res.Winner == nil {
		t.Fatalf("winner = %q (res %v), want healthy", res.Tool, res.Winner)
	}
	if err := router.Validate(p.Circuit, p.Device, res.Winner); err != nil {
		t.Fatalf("winner failed independent validation: %v", err)
	}
	if r := racerByTool(t, res, "hung"); r.Outcome != OutcomeTimeout {
		t.Fatalf("hung racer outcome = %q, want timeout", r.Outcome)
	}
	// The deadline expiring on a racer is breaker evidence.
	if got := breakers.StateOf("hung"); got != Open {
		t.Fatalf("hung tool breaker = %v, want open after deadline timeout", got)
	}
	if got := breakers.StateOf("healthy"); got != Closed {
		t.Fatalf("healthy tool breaker = %v, want closed", got)
	}
}

// A win condition ends the race early and cancels the remaining racers
// through their contexts — the hung tool never runs out the deadline.
func TestRunWinCancelsLosers(t *testing.T) {
	p, opt := prep(t)
	entries := []Entry{
		healthyEntry("healthy", 0, 1),
		chaosEntry("hung", 0, chaos.HangUntilCancel, nil),
	}
	start := time.Now()
	res, err := Run(context.Background(), p, entries, Options{
		Deadline:  30 * time.Second,
		Threshold: 1000, // any validated result wins
		Optimal:   opt,
		Seed:      11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reason != ReasonThreshold && res.Reason != ReasonOptimal {
		t.Fatalf("reason = %q, want a win condition", res.Reason)
	}
	if res.DeadlineHit {
		t.Fatal("win condition reported as a deadline hit")
	}
	if res.Tool != "healthy" {
		t.Fatalf("winner = %q, want healthy", res.Tool)
	}
	if r := racerByTool(t, res, "hung"); r.Outcome != OutcomeCancelled {
		t.Fatalf("hung racer outcome = %q, want cancelled", r.Outcome)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("win took %v; losers were not cancelled", elapsed)
	}
	if !racerByTool(t, res, "healthy").Winner {
		t.Fatal("winning racer not flagged in the report")
	}
}

// Panicking and lying tools become racer outcomes; the audit keeps the
// liar from winning and the panic never crosses the goroutine.
// Racer spans carry the guard's outcome and the tool's work counters
// next to the tool label that per-racer timings key on.
func TestRunRacerSpansCarryOutcomeAndCounters(t *testing.T) {
	p, _ := prep(t)
	tr := obs.New(64)
	ctx := obs.NewContext(context.Background(), tr)
	entries := []Entry{healthyEntry("a", 0, 1), healthyEntry("b", 0, 2)}
	if _, err := Run(ctx, p, entries, Options{Seed: 11}); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := tr.WriteChrome(&sb); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatal(err)
	}
	racers := 0
	for _, ev := range doc.TraceEvents {
		if ev.Cat != "portfolio" || ev.Name != "racer" {
			continue
		}
		racers++
		if ev.Args["outcome"] != OutcomeOK {
			t.Errorf("racer %v outcome = %v, want %q", ev.Args["tool"], ev.Args["outcome"], OutcomeOK)
		}
		for _, k := range []string{"tool", "decisions", "candidates", "restarts", "score"} {
			if _, ok := ev.Args[k]; !ok {
				t.Errorf("racer span %v lacks %q: %v", ev.Args["tool"], k, ev.Args)
			}
		}
	}
	if racers != len(entries) {
		t.Fatalf("trace holds %d racer spans, want %d", racers, len(entries))
	}
}

func TestRunIsolatesPanicAndInvalid(t *testing.T) {
	p, opt := prep(t)
	entries := []Entry{
		chaosEntry("panicky", 0, chaos.Panic, nil),
		chaosEntry("liar", 0, chaos.WrongResult, nil),
		healthyEntry("healthy", 0, 1),
	}
	res, err := Run(context.Background(), p, entries, Options{Seed: 11, Optimal: opt})
	if err != nil {
		t.Fatal(err)
	}
	if res.Tool != "healthy" {
		t.Fatalf("winner = %q, want healthy", res.Tool)
	}
	if r := racerByTool(t, res, "panicky"); r.Outcome != OutcomePanic {
		t.Fatalf("panicky outcome = %q, want panic", r.Outcome)
	}
	if r := racerByTool(t, res, "liar"); r.Outcome != OutcomeInvalid {
		t.Fatalf("liar outcome = %q (err %q), want invalid", r.Outcome, r.Err)
	}
}

// With every tool failing there is nothing to degrade to: the race is
// the one case that errors, and the error names each tool's outcome.
func TestRunAllFailIsNoResult(t *testing.T) {
	p, _ := prep(t)
	entries := []Entry{
		chaosEntry("failing", 0, chaos.Fail, nil),
		chaosEntry("panicky", 0, chaos.Panic, nil),
	}
	_, err := Run(context.Background(), p, entries, Options{Seed: 11})
	if !errors.Is(err, ErrNoResult) {
		t.Fatalf("err = %v, want ErrNoResult", err)
	}
}

// Per-racer timeouts cut a hung tool without waiting for the race
// deadline, and the race then completes on the healthy result.
func TestRunToolTimeout(t *testing.T) {
	p, _ := prep(t)
	entries := []Entry{
		chaosEntry("hung", 0, chaos.HangUntilCancel, nil),
		healthyEntry("healthy", 0, 1),
	}
	res, err := Run(context.Background(), p, entries, Options{
		ToolTimeout: 150 * time.Millisecond,
		Seed:        11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reason != ReasonComplete {
		t.Fatalf("reason = %q, want complete (hung tool timed out individually)", res.Reason)
	}
	if r := racerByTool(t, res, "hung"); r.Outcome != OutcomeTimeout {
		t.Fatalf("hung racer outcome = %q, want timeout", r.Outcome)
	}
}

// Hedging: the expensive tier never launches when the cheap tier wins
// first, and is reported as hedged, not charged to its breaker.
func TestRunHedgingHoldsExpensiveTier(t *testing.T) {
	p, opt := prep(t)
	entries := []Entry{
		healthyEntry("cheap", 0, 1),
		chaosEntry("expensive", 1, chaos.HangUntilCancel, nil),
	}
	breakers := NewBreakerSet(BreakerConfig{TripAfter: 1})
	res, err := Run(context.Background(), p, entries, Options{
		Deadline:   30 * time.Second,
		HedgeDelay: time.Hour,
		Threshold:  1000,
		Optimal:    opt,
		Seed:       11,
		Breakers:   breakers,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Tool != "cheap" {
		t.Fatalf("winner = %q, want cheap", res.Tool)
	}
	if r := racerByTool(t, res, "expensive"); r.Outcome != OutcomeHedged {
		t.Fatalf("expensive racer outcome = %q, want hedged", r.Outcome)
	}
	if got := breakers.StateOf("expensive"); got != Closed {
		t.Fatalf("unlaunched tool's breaker = %v, want closed (no evidence)", got)
	}
}

// Hedging: when every launched racer fails, the next tier is pulled
// forward immediately instead of waiting out the hedge delay.
func TestRunHedgingEarlyLaunchOnFailure(t *testing.T) {
	p, _ := prep(t)
	entries := []Entry{
		chaosEntry("failing", 0, chaos.Fail, nil),
		healthyEntry("backup", 1, 1),
	}
	start := time.Now()
	res, err := Run(context.Background(), p, entries, Options{
		HedgeDelay: time.Hour,
		Seed:       11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Tool != "backup" {
		t.Fatalf("winner = %q, want backup", res.Tool)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("early hedge launch took %v; the delay was not pulled forward", elapsed)
	}
}

// Breakers end-to-end across races: a flaky tool trips open, gets
// skipped, then recovers through a half-open probe.
func TestRunBreakerTripSkipRecover(t *testing.T) {
	p, _ := prep(t)
	clock := newFakeClock()
	breakers := NewBreakerSet(BreakerConfig{TripAfter: 1, Cooldown: time.Minute, Now: clock.now})
	gate := chaos.NewFlakyGate(1) // shared across races: fail once, then recover
	flaky := chaosEntry("flaky", 0, chaos.FailFirstN, func(r *chaos.Router) { r.FirstN = gate })
	opts := Options{Seed: 11, Breakers: breakers}

	// Race 1: the flaky tool errors and trips its breaker.
	if _, err := Run(context.Background(), p, []Entry{flaky}, opts); !errors.Is(err, ErrNoResult) {
		t.Fatalf("race 1 err = %v, want ErrNoResult", err)
	}
	if got := breakers.StateOf("flaky"); got != Open {
		t.Fatalf("after race 1 breaker = %v, want open", got)
	}

	// Race 2: the open breaker leaves no admissible tool — the caller
	// gets the typed error the serving layer maps to 503 + Retry-After.
	if _, err := Run(context.Background(), p, []Entry{flaky}, opts); !errors.Is(err, ErrNoAdmissibleTool) {
		t.Fatalf("race 2 err = %v, want ErrNoAdmissibleTool", err)
	}

	// Race 3 (after cooldown): the half-open probe succeeds — the gate is
	// exhausted — and the breaker closes.
	clock.advance(time.Minute)
	res, err := Run(context.Background(), p, []Entry{flaky}, opts)
	if err != nil {
		t.Fatalf("race 3 (probe) err = %v", err)
	}
	if res.Tool != "flaky" {
		t.Fatalf("probe race winner = %q, want flaky", res.Tool)
	}
	if !racerByTool(t, res, "flaky").Probe {
		t.Fatal("probe race not flagged as a probe in the racer report")
	}
	if got := breakers.StateOf("flaky"); got != Closed {
		t.Fatalf("after successful probe breaker = %v, want closed", got)
	}

	// Race 4: back to normal admission.
	if _, err := Run(context.Background(), p, []Entry{flaky}, opts); err != nil {
		t.Fatalf("race 4 err = %v, want recovered tool to race normally", err)
	}
}

// A caller's own cancellation is a hard error, not a degradation.
func TestRunCallerCancelIsError(t *testing.T) {
	p, _ := prep(t)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	var err error
	go func() {
		defer close(done)
		_, err = Run(ctx, p, []Entry{chaosEntry("hung", 0, chaos.HangUntilCancel, nil)}, Options{Seed: 11})
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return after caller cancellation")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestDefaultTier(t *testing.T) {
	if DefaultTier("tket") != 0 || DefaultTier("ml-qls") != 0 {
		t.Error("millisecond-class tools must be tier 0")
	}
	if DefaultTier("qmap") <= DefaultTier("lightsabre") {
		t.Error("qmap must hedge after lightsabre")
	}
	if DefaultTier("mystery") != 1 {
		t.Error("unknown tools default to the middle tier")
	}
}
