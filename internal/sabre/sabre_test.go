package sabre

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/qubikos"
	"repro/internal/router"
)

func TestRouteTriangleOnLine(t *testing.T) {
	c := circuit.New(3)
	c.MustAppend(circuit.NewCX(0, 1), circuit.NewCX(1, 2), circuit.NewCX(0, 2))
	dev := arch.Line(4)
	r := New(Options{Trials: 8, Seed: 1})
	res, err := router.RouteWithContext(context.Background(), r, c, dev)
	if err != nil {
		t.Fatal(err)
	}
	if err := router.Validate(c, dev, res); err != nil {
		t.Fatalf("invalid result: %v", err)
	}
	if res.SwapCount < 1 {
		t.Errorf("triangle on line routed with %d swaps; needs >= 1", res.SwapCount)
	}
	if res.SwapCount > 4 {
		t.Errorf("triangle on line took %d swaps; heuristic unreasonably bad", res.SwapCount)
	}
}

func TestRouteEmbeddableCircuitZeroSwaps(t *testing.T) {
	// A line-shaped circuit on a line device: some trial should find the
	// zero-swap placement.
	c := circuit.New(5)
	c.MustAppend(
		circuit.NewCX(0, 1), circuit.NewCX(1, 2),
		circuit.NewCX(2, 3), circuit.NewCX(3, 4),
	)
	dev := arch.Line(5)
	r := New(Options{Trials: 32, Seed: 2})
	res, err := router.RouteWithContext(context.Background(), r, c, dev)
	if err != nil {
		t.Fatal(err)
	}
	if err := router.Validate(c, dev, res); err != nil {
		t.Fatal(err)
	}
	if res.SwapCount != 0 {
		t.Errorf("embeddable circuit routed with %d swaps", res.SwapCount)
	}
}

func TestRouteWithSingleQubitGates(t *testing.T) {
	c := circuit.New(4)
	c.MustAppend(
		circuit.NewH(0), circuit.NewCX(0, 1), circuit.NewRZ(1, 0.3),
		circuit.NewCX(2, 3), circuit.NewCX(0, 3), circuit.NewX(2),
		circuit.NewCX(1, 2),
	)
	dev := arch.Grid3x3()
	r := New(Options{Trials: 4, Seed: 3})
	res, err := router.RouteWithContext(context.Background(), r, c, dev)
	if err != nil {
		t.Fatal(err)
	}
	if err := router.Validate(c, dev, res); err != nil {
		t.Fatalf("1q gates broke routing: %v", err)
	}
}

func TestRouteDeterministic(t *testing.T) {
	b, err := qubikos.Generate(arch.RigettiAspen4(), qubikos.Options{NumSwaps: 3, TargetTwoQubitGates: 60, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	r1 := New(Options{Trials: 4, Seed: 9})
	r2 := New(Options{Trials: 4, Seed: 9})
	a, err := router.RouteWithContext(context.Background(), r1, b.Circuit, b.Device)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := router.RouteWithContext(context.Background(), r2, b.Circuit, b.Device)
	if err != nil {
		t.Fatal(err)
	}
	if a.SwapCount != bb.SwapCount {
		t.Errorf("same seed different swap counts: %d vs %d", a.SwapCount, bb.SwapCount)
	}
}

func TestRouteQubikosNeverBeatsOptimal(t *testing.T) {
	// Fundamental soundness: SABRE can never use fewer SWAPs than the
	// provably optimal count.
	devices := []*arch.Device{arch.RigettiAspen4(), arch.Grid3x3()}
	for seed := int64(0); seed < 6; seed++ {
		dev := devices[seed%2]
		n := 1 + int(seed)%3
		b, err := qubikos.Generate(dev, qubikos.Options{NumSwaps: n, TargetTwoQubitGates: 50, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		r := New(Options{Trials: 8, Seed: seed})
		res, err := router.RouteWithContext(context.Background(), r, b.Circuit, b.Device)
		if err != nil {
			t.Fatal(err)
		}
		if err := router.Validate(b.Circuit, b.Device, res); err != nil {
			t.Fatalf("seed=%d: %v", seed, err)
		}
		if res.SwapCount < b.OptSwaps {
			t.Fatalf("seed=%d: SABRE used %d swaps, below proven optimum %d — optimality proof violated",
				seed, res.SwapCount, b.OptSwaps)
		}
	}
}

func TestMoreTrialsNeverWorse(t *testing.T) {
	b, err := qubikos.Generate(arch.GoogleSycamore54(), qubikos.Options{NumSwaps: 5, TargetTwoQubitGates: 150, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	few := New(Options{Trials: 2, Seed: 11})
	many := New(Options{Trials: 16, Seed: 11})
	fr, err := router.RouteWithContext(context.Background(), few, b.Circuit, b.Device)
	if err != nil {
		t.Fatal(err)
	}
	mr, err := router.RouteWithContext(context.Background(), many, b.Circuit, b.Device)
	if err != nil {
		t.Fatal(err)
	}
	// The first 2 trials are a prefix of the 16 (same seed), so the
	// 16-trial result can only be equal or better.
	if mr.SwapCount > fr.SwapCount {
		t.Errorf("16 trials (%d swaps) worse than 2 trials (%d swaps)", mr.SwapCount, fr.SwapCount)
	}
}

func TestDecayLookaheadVariant(t *testing.T) {
	b, err := qubikos.Generate(arch.RigettiAspen4(), qubikos.Options{NumSwaps: 2, TargetTwoQubitGates: 40, Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	r := New(Options{Trials: 4, Seed: 7, LookaheadDecay: 0.8})
	if r.Name() != "lightsabre+decay" {
		t.Errorf("name=%q", r.Name())
	}
	res, err := router.RouteWithContext(context.Background(), r, b.Circuit, b.Device)
	if err != nil {
		t.Fatal(err)
	}
	if err := router.Validate(b.Circuit, b.Device, res); err != nil {
		t.Fatal(err)
	}
}

func TestTraceHookFires(t *testing.T) {
	b, err := qubikos.Generate(arch.Grid3x3(), qubikos.Options{NumSwaps: 2, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	steps := 0
	r := New(Options{Trials: 2, Seed: 3, Trace: func(ts TraceStep) {
		steps++
		if len(ts.Candidates) == 0 {
			t.Error("trace step with no candidates")
		}
		if ts.ChosenIdx < 0 || ts.ChosenIdx >= len(ts.Candidates) {
			t.Error("trace chosen index out of range")
		}
		for _, c := range ts.Candidates {
			if c.Total < 0 {
				t.Error("negative total cost")
			}
		}
	}})
	if _, err := router.RouteWithContext(context.Background(), r, b.Circuit, b.Device); err != nil {
		t.Fatal(err)
	}
	if steps == 0 {
		t.Error("trace hook never fired on a benchmark that needs swaps")
	}
}

func TestRouteTooManyQubits(t *testing.T) {
	c := circuit.New(10)
	r := New(Options{Trials: 1})
	if _, err := router.RouteWithContext(context.Background(), r, c, arch.Line(4)); err == nil {
		t.Fatal("oversized circuit accepted")
	}
}

func TestRouteEmptyCircuit(t *testing.T) {
	c := circuit.New(3)
	dev := arch.Line(3)
	r := New(Options{Trials: 2, Seed: 1})
	res, err := router.RouteWithContext(context.Background(), r, c, dev)
	if err != nil {
		t.Fatal(err)
	}
	if res.SwapCount != 0 || res.Transpiled.NumGates() != 0 {
		t.Error("empty circuit should route trivially")
	}
}

func TestRouteOnAllPaperDevices(t *testing.T) {
	for _, dev := range arch.PaperDevices() {
		b, err := qubikos.Generate(dev, qubikos.Options{NumSwaps: 3, TargetTwoQubitGates: 80, Seed: 31})
		if err != nil {
			t.Fatal(err)
		}
		r := New(Options{Trials: 2, Seed: 1})
		res, err := router.RouteWithContext(context.Background(), r, b.Circuit, b.Device)
		if err != nil {
			t.Fatalf("%s: %v", dev.Name(), err)
		}
		if err := router.Validate(b.Circuit, b.Device, res); err != nil {
			t.Fatalf("%s: %v", dev.Name(), err)
		}
		if res.SwapCount < b.OptSwaps {
			t.Fatalf("%s: below optimal", dev.Name())
		}
	}
}

// Cancellation must stop trial dispatch, not just the running trials:
// a trial handed out after ctx is done still pays its RNG seeding and
// pass setup, so draining the whole Trials budget made cancellation
// latency grow with Trials. Under a dead or 1 ms context, a very large
// trial budget must come back promptly.
func TestRouteCancellationLatencyIndependentOfTrials(t *testing.T) {
	dev := arch.Grid3x3()
	c := circuit.New(9)
	rng := rand.New(rand.NewSource(11))
	for len(c.Gates) < 2000 {
		a, b := rng.Intn(9), rng.Intn(9)
		if a != b {
			c.MustAppend(circuit.NewCX(a, b))
		}
	}
	p, err := router.Prepare(c, dev)
	if err != nil {
		t.Fatal(err)
	}
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	short, cancelShort := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancelShort()
	for name, ctx := range map[string]context.Context{"dead": dead, "1ms": short} {
		start := time.Now()
		res, err := New(Options{Trials: 200_000, Seed: 1}).Route(ctx, p, nil)
		elapsed := time.Since(start)
		if err == nil || res != nil {
			t.Fatalf("%s: res=%v err=%v, want a cancellation error", name, res, err)
		}
		if elapsed > time.Second {
			t.Errorf("%s context: cancelled route took %v at 200000 trials, want well under 1s", name, elapsed)
		}
	}
}
