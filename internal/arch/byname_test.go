package arch

import (
	"sync"
	"testing"
)

// Every canonical Device.Name() this package emits must resolve back
// through ByName — benchmark sidecars and suite manifests depend on the
// round trip.
func TestByNameRoundTripsCanonicalNames(t *testing.T) {
	devices := []*Device{
		RigettiAspen4(), GoogleSycamore54(), IBMRochester53(), IBMEagle127(),
		IBMFalcon27(), IBMHummingbird65(),
		Grid(3, 3), Grid(4, 7), Line(16), Ring(12), Star(8), FullyConnected(5),
		HeavyHex(2, 5),
	}
	for _, dev := range devices {
		got, err := ByName(dev.Name())
		if err != nil {
			t.Errorf("ByName(%q): %v", dev.Name(), err)
			continue
		}
		if got.NumQubits() != dev.NumQubits() || got.NumCouplers() != dev.NumCouplers() {
			t.Errorf("ByName(%q) = %d qubits / %d couplers, want %d / %d",
				dev.Name(), got.NumQubits(), got.NumCouplers(), dev.NumQubits(), dev.NumCouplers())
		}
	}
}

// Parametric names reach ByName from untrusted inputs; oversized or
// malformed ones must error instead of allocating.
func TestByNameRejectsBadParametricNames(t *testing.T) {
	for _, name := range []string{
		"grid-100000x100000", // would allocate ~10^19 adjacency bits
		"line-999999999",
		"complete-1000000",
		"complete-2048", "complete-4096", // 2,096,128 and 8,386,560 couplers
		"complete-182", // one past the coupler bound
		"heavyhex-99999x99999",
		"grid-0x5", "grid--1x3", "ring-2", "star-1",
		"grid-3x3junk", "line-", "grid-3", "warp-core",
		"heavyhex-1x1", "heavyhex-2x4", // below HeavyHex's structural minimum
	} {
		if _, err := ByName(name); err == nil {
			t.Errorf("ByName(%q) succeeded, want error", name)
		}
	}
	for _, name := range []string{"complete-181", "grid-64x64", "line-4096"} {
		if dev, err := ByName(name); err != nil || dev.NumCouplers() > MaxParametricCouplers {
			t.Errorf("ByName(%q) at the bounds: %v", name, err)
		}
	}
}

// A fixed name, under any alias, resolves to one shared device, so its
// distance matrix is built once per process. A parametric name builds a
// fresh device on every call: nothing caches what callers send.
func TestByNameSharesFixedDevices(t *testing.T) {
	for _, names := range [][]string{
		{"aspen4"}, {"sycamore54", "sycamore"}, {"rochester53", "rochester"},
		{"eagle127", "eagle"}, {"grid3x3"}, {"falcon27", "falcon"},
		{"hummingbird65", "hummingbird"},
	} {
		first, err := ByName(names[0])
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			if dev, _ := ByName(name); dev != first {
				t.Errorf("ByName(%q) built a second device; want the shared %s", name, first.Name())
			}
		}
	}
	// Concurrent requests share one device, so resolving it and reading
	// its distance matrix from many goroutines at once must be safe.
	var wg sync.WaitGroup
	got := make([]*Device, 8)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dev, _ := ByName("eagle")
			dev.Distances()
			got[i] = dev
		}()
	}
	wg.Wait()
	for _, dev := range got {
		if want, _ := ByName("eagle127"); dev != want {
			t.Fatal("concurrent ByName calls returned different devices")
		}
	}
	for _, name := range []string{"line-5", "grid-3x3", "heavyhex-2x5"} {
		a, errA := ByName(name)
		b, errB := ByName(name)
		if errA != nil || errB != nil {
			t.Fatal(errA, errB)
		}
		if a == b {
			t.Errorf("ByName(%q) returned a shared device; parametric names must build fresh", name)
		}
	}
}
