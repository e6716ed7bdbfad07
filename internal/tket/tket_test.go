package tket

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

func TestRouteQubikosValidAndAboveOptimal(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		b, err := qubikos.Generate(arch.RigettiAspen4(),
			qubikos.Options{NumSwaps: 2 + int(seed)%2, TargetTwoQubitGates: 60, Seed: seed})
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

func TestRouteWithSingleQubitGates(t *testing.T) {
	b, err := qubikos.Generate(arch.Grid3x3(),
		qubikos.Options{NumSwaps: 2, SingleQubitGates: 10, Seed: 3})
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

func TestRouteDeterministic(t *testing.T) {
	b, err := qubikos.Generate(arch.GoogleSycamore54(),
		qubikos.Options{NumSwaps: 4, TargetTwoQubitGates: 120, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	a, err := router.RouteWithContext(context.Background(), New(Options{Seed: 9}), b.Circuit, b.Device)
	if err != nil {
		t.Fatal(err)
	}
	c, err := router.RouteWithContext(context.Background(), New(Options{Seed: 9}), b.Circuit, b.Device)
	if err != nil {
		t.Fatal(err)
	}
	if a.SwapCount != c.SwapCount {
		t.Errorf("nondeterministic: %d vs %d", a.SwapCount, c.SwapCount)
	}
}

func TestRouteOnAllPaperDevices(t *testing.T) {
	for _, dev := range arch.PaperDevices() {
		b, err := qubikos.Generate(dev, qubikos.Options{NumSwaps: 3, TargetTwoQubitGates: 80, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		res, err := router.RouteWithContext(context.Background(), New(Options{Seed: 2}), b.Circuit, b.Device)
		if err != nil {
			t.Fatalf("%s: %v", dev.Name(), err)
		}
		if err := router.Validate(b.Circuit, b.Device, res); err != nil {
			t.Fatalf("%s: %v", dev.Name(), err)
		}
	}
}

func TestRouterReuseAcrossSameSizeDevices(t *testing.T) {
	// A Router caches its engine per device; re-routing on a different
	// device of the same size must rebuild it, not reuse the previous
	// device's adjacency and distances.
	c := circuit.New(8)
	for i := 0; i < 7; i++ {
		c.MustAppend(circuit.NewCX(i, i+1), circuit.NewCX(i, (i+3)%8))
	}
	r := New(Options{Seed: 5})
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

func TestRouteEmptyCircuit(t *testing.T) {
	c := circuit.New(4)
	res, err := router.RouteWithContext(context.Background(), New(Options{}), c, arch.Line(4))
	if err != nil {
		t.Fatal(err)
	}
	if res.SwapCount != 0 {
		t.Error("empty circuit routed with swaps")
	}
}
