package qmap

import (
	"context"
	"testing"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/qubikos"
	"repro/internal/router"
)

func TestRouteTriangleOnLine(t *testing.T) {
	c := circuit.New(3)
	c.MustAppend(circuit.NewCX(0, 1), circuit.NewCX(1, 2), circuit.NewCX(0, 2))
	dev := arch.Line(4)
	res, err := router.RouteWithContext(context.Background(), New(Options{Seed: 1}), c, dev)
	if err != nil {
		t.Fatal(err)
	}
	if err := router.Validate(c, dev, res); err != nil {
		t.Fatalf("invalid: %v", err)
	}
	if res.SwapCount < 1 {
		t.Error("triangle on a line needs at least one swap")
	}
}

func TestAStarFindsZeroSwapLayer(t *testing.T) {
	// All gates executable immediately: no swaps should be inserted.
	c := circuit.New(4)
	c.MustAppend(circuit.NewCX(0, 1), circuit.NewCX(2, 3))
	dev := arch.Line(4)
	res, err := router.RouteWithContext(context.Background(), New(Options{Seed: 1}), c, dev)
	if err != nil {
		t.Fatal(err)
	}
	if err := router.Validate(c, dev, res); err != nil {
		t.Fatal(err)
	}
	// The degree-sorted placement puts the chain in order; at worst a few
	// swaps, never a silly number for two gates.
	if res.SwapCount > 3 {
		t.Errorf("two trivial gates took %d swaps", res.SwapCount)
	}
}

func TestRouteQubikosValidAndAboveOptimal(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		b, err := qubikos.Generate(arch.Grid3x3(),
			qubikos.Options{NumSwaps: 2, TargetTwoQubitGates: 40, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		res, err := router.RouteWithContext(context.Background(), New(Options{Seed: seed}), b.Circuit, b.Device)
		if err != nil {
			t.Fatal(err)
		}
		if err := router.Validate(b.Circuit, b.Device, res); err != nil {
			t.Fatalf("seed=%d: %v", seed, err)
		}
		if res.SwapCount < b.OptSwaps {
			t.Fatalf("seed=%d: below proven optimum", seed)
		}
	}
}

func TestTruncatedSearchStillValid(t *testing.T) {
	// A tiny node budget forces the greedy fallback path.
	b, err := qubikos.Generate(arch.RigettiAspen4(),
		qubikos.Options{NumSwaps: 3, TargetTwoQubitGates: 80, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	res, err := router.RouteWithContext(context.Background(), New(Options{MaxNodes: 3, Seed: 7}), b.Circuit, b.Device)
	if err != nil {
		t.Fatal(err)
	}
	if err := router.Validate(b.Circuit, b.Device, res); err != nil {
		t.Fatalf("truncated search produced invalid result: %v", err)
	}
}

func TestRouteDeterministic(t *testing.T) {
	b, err := qubikos.Generate(arch.RigettiAspen4(),
		qubikos.Options{NumSwaps: 2, TargetTwoQubitGates: 50, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	a, err := router.RouteWithContext(context.Background(), New(Options{Seed: 4}), b.Circuit, b.Device)
	if err != nil {
		t.Fatal(err)
	}
	c, err := router.RouteWithContext(context.Background(), New(Options{Seed: 4}), b.Circuit, b.Device)
	if err != nil {
		t.Fatal(err)
	}
	if a.SwapCount != c.SwapCount {
		t.Errorf("nondeterministic: %d vs %d", a.SwapCount, c.SwapCount)
	}
}

func TestRouteOnAllPaperDevices(t *testing.T) {
	for _, dev := range arch.PaperDevices() {
		b, err := qubikos.Generate(dev, qubikos.Options{NumSwaps: 2, TargetTwoQubitGates: 60, Seed: 13})
		if err != nil {
			t.Fatal(err)
		}
		res, err := router.RouteWithContext(context.Background(), New(Options{MaxNodes: 4000, Seed: 2}), b.Circuit, b.Device)
		if err != nil {
			t.Fatalf("%s: %v", dev.Name(), err)
		}
		if err := router.Validate(b.Circuit, b.Device, res); err != nil {
			t.Fatalf("%s: %v", dev.Name(), err)
		}
	}
}

func TestRouteWithSingleQubitGates(t *testing.T) {
	b, err := qubikos.Generate(arch.Grid3x3(),
		qubikos.Options{NumSwaps: 1, SingleQubitGates: 8, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	res, err := router.RouteWithContext(context.Background(), New(Options{Seed: 3}), b.Circuit, b.Device)
	if err != nil {
		t.Fatal(err)
	}
	if err := router.Validate(b.Circuit, b.Device, res); err != nil {
		t.Fatal(err)
	}
}

func TestRouterReuseAcrossSameSizeDevices(t *testing.T) {
	// A Router caches its A* engine per device; re-routing on a
	// different device of the same size must rebuild it, not reuse the
	// previous device's adjacency, distances, and Zobrist table.
	c := circuit.New(8)
	for i := 0; i < 7; i++ {
		c.MustAppend(circuit.NewCX(i, i+1), circuit.NewCX(i, (i+3)%8))
	}
	r := New(Options{MaxNodes: 500, Seed: 5})
	for _, dev := range []*arch.Device{arch.Ring(8), arch.Line(8), arch.Grid(2, 4)} {
		res, err := router.RouteWithContext(context.Background(), r, c, dev)
		if err != nil {
			t.Fatalf("%s: %v", dev.Name(), err)
		}
		if err := router.Validate(c, dev, res); err != nil {
			t.Fatalf("%s: reused router produced invalid result: %v", dev.Name(), err)
		}
	}
}

func TestRouteTooManyQubits(t *testing.T) {
	c := circuit.New(9)
	if _, err := router.RouteWithContext(context.Background(), New(Options{}), c, arch.Line(4)); err == nil {
		t.Fatal("oversized circuit accepted")
	}
}
