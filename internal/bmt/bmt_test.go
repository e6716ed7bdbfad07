package bmt

import (
	"context"
	"testing"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/qubikos"
	"repro/internal/router"
)

func TestRouteEmbeddableCircuitZeroSwaps(t *testing.T) {
	// An embeddable circuit must route with zero SWAPs — the defining
	// strength of the isomorphism family (QUEKO benchmarks are free).
	c := circuit.New(5)
	c.MustAppend(
		circuit.NewCX(0, 1), circuit.NewCX(1, 2),
		circuit.NewCX(2, 3), circuit.NewCX(3, 4),
		circuit.NewCX(0, 1), // repeats are free
	)
	dev := arch.Line(5)
	res, err := router.RouteWithContext(context.Background(), New(), c, dev)
	if err != nil {
		t.Fatal(err)
	}
	if err := router.Validate(c, dev, res); err != nil {
		t.Fatal(err)
	}
	if res.SwapCount != 0 {
		t.Fatalf("embeddable circuit took %d swaps", res.SwapCount)
	}
}

func TestRouteQuekoLikeIsFree(t *testing.T) {
	// n=0 QUBIKOS (QUEKO-like) benchmarks embed by construction; VF2-TS
	// must solve them exactly — the paper's point that QUEKO cannot
	// separate isomorphism tools from real routers.
	b, err := qubikos.Generate(arch.Grid3x3(), qubikos.Options{
		NumSwaps: 0, TargetTwoQubitGates: 30, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := router.RouteWithContext(context.Background(), New(), b.Circuit, b.Device)
	if err != nil {
		t.Fatal(err)
	}
	if err := router.Validate(b.Circuit, b.Device, res); err != nil {
		t.Fatal(err)
	}
	if res.SwapCount != 0 {
		t.Fatalf("QUEKO-like instance took %d swaps", res.SwapCount)
	}
}

func TestRouteTriangleOnLine(t *testing.T) {
	c := circuit.New(3)
	c.MustAppend(circuit.NewCX(0, 1), circuit.NewCX(1, 2), circuit.NewCX(0, 2))
	dev := arch.Line(4)
	res, err := router.RouteWithContext(context.Background(), New(), c, dev)
	if err != nil {
		t.Fatal(err)
	}
	if err := router.Validate(c, dev, res); err != nil {
		t.Fatal(err)
	}
	if res.SwapCount < 1 {
		t.Error("triangle needs at least one swap")
	}
}

// The paper's Section III-C: on QUBIKOS the special gates partition the
// backbone into embeddable sections, so the segment count tracks the
// number of forced swaps, and the tool stays valid but suboptimal.
func TestSectionIIICSegmentation(t *testing.T) {
	b, err := qubikos.Generate(arch.RigettiAspen4(), qubikos.Options{
		NumSwaps: 4, Seed: 13,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := New()
	segs, err := segmentCount(r, b.Circuit, b.Device)
	if err != nil {
		t.Fatal(err)
	}
	// Each special gate forces a boundary: at least OptSwaps+1 segments.
	if segs < b.OptSwaps+1 {
		t.Errorf("segments=%d want >= %d (one boundary per special gate)", segs, b.OptSwaps+1)
	}
	res, err := router.RouteWithContext(context.Background(), r, b.Circuit, b.Device)
	if err != nil {
		t.Fatal(err)
	}
	if err := router.Validate(b.Circuit, b.Device, res); err != nil {
		t.Fatal(err)
	}
	if res.SwapCount < b.OptSwaps {
		t.Fatalf("beat the proven optimum: %d < %d", res.SwapCount, b.OptSwaps)
	}
}

func TestRouteQubikosAcrossDevices(t *testing.T) {
	for _, dev := range []*arch.Device{arch.RigettiAspen4(), arch.Grid3x3(), arch.IBMFalcon27()} {
		b, err := qubikos.Generate(dev, qubikos.Options{
			NumSwaps: 2, TargetTwoQubitGates: 60, Seed: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := router.RouteWithContext(context.Background(), New(), b.Circuit, b.Device)
		if err != nil {
			t.Fatalf("%s: %v", dev.Name(), err)
		}
		if err := router.Validate(b.Circuit, b.Device, res); err != nil {
			t.Fatalf("%s: %v", dev.Name(), err)
		}
		if res.SwapCount < b.OptSwaps {
			t.Fatalf("%s: below optimum", dev.Name())
		}
	}
}

func TestRouteWithSingleQubitGates(t *testing.T) {
	b, err := qubikos.Generate(arch.Grid3x3(), qubikos.Options{
		NumSwaps: 2, SingleQubitGates: 10, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := router.RouteWithContext(context.Background(), New(), b.Circuit, b.Device)
	if err != nil {
		t.Fatal(err)
	}
	if err := router.Validate(b.Circuit, b.Device, res); err != nil {
		t.Fatal(err)
	}
}

func TestRouteEmptyCircuit(t *testing.T) {
	c := circuit.New(4)
	c.MustAppend(circuit.NewH(0))
	res, err := router.RouteWithContext(context.Background(), New(), c, arch.Line(4))
	if err != nil {
		t.Fatal(err)
	}
	if res.SwapCount != 0 || res.Transpiled.NumGates() != 1 {
		t.Fatal("trivial circuit mishandled")
	}
}

func TestRouteTooManyQubits(t *testing.T) {
	c := circuit.New(9)
	if _, err := router.RouteWithContext(context.Background(), New(), c, arch.Line(4)); err == nil {
		t.Fatal("oversized circuit accepted")
	}
}

func TestRouteDeterministic(t *testing.T) {
	b, err := qubikos.Generate(arch.RigettiAspen4(), qubikos.Options{
		NumSwaps: 3, TargetTwoQubitGates: 80, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	a, err := router.RouteWithContext(context.Background(), New(), b.Circuit, b.Device)
	if err != nil {
		t.Fatal(err)
	}
	c, err := router.RouteWithContext(context.Background(), New(), b.Circuit, b.Device)
	if err != nil {
		t.Fatal(err)
	}
	if a.SwapCount != c.SwapCount {
		t.Fatalf("nondeterministic: %d vs %d", a.SwapCount, c.SwapCount)
	}
}

// segmentCount reports how many embeddable segments r splits the circuit
// into, the analysis quantity of the paper's Section III-C: on QUBIKOS
// backbones the special gates force one boundary per section.
func segmentCount(r *Router, c *circuit.Circuit, dev *arch.Device) (int, error) {
	work := router.PadToDevice(c, dev)
	segments, err := r.segmentize(router.TwoQubitSkeleton(work), dev.Graph())
	if err != nil {
		return 0, err
	}
	return len(segments), nil
}
