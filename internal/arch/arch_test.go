package arch

import (
	"repro/internal/graph"

	"testing"
)

func TestLine(t *testing.T) {
	d := Line(5)
	if d.NumQubits() != 5 || d.NumCouplers() != 4 {
		t.Fatalf("line-5: %d qubits %d couplers", d.NumQubits(), d.NumCouplers())
	}
	if d.Distances().At(0, 4) != 4 {
		t.Errorf("end-to-end distance %d want 4", d.Distances().At(0, 4))
	}
}

func TestRing(t *testing.T) {
	d := Ring(8)
	if d.NumCouplers() != 8 {
		t.Fatalf("ring-8 couplers=%d", d.NumCouplers())
	}
	if d.Distances().At(0, 4) != 4 || d.Distances().At(0, 7) != 1 {
		t.Errorf("ring distances wrong: %d, %d", d.Distances().At(0, 4), d.Distances().At(0, 7))
	}
	for v := 0; v < 8; v++ {
		if d.Graph().Degree(v) != 2 {
			t.Fatalf("ring vertex %d degree %d", v, d.Graph().Degree(v))
		}
	}
}

func TestGrid(t *testing.T) {
	d := Grid(3, 4)
	if d.NumQubits() != 12 {
		t.Fatalf("qubits=%d", d.NumQubits())
	}
	// edges: 3*3 horizontal per row *3 rows? horizontal: 3 rows * 3 = 9; vertical: 2*4 = 8.
	if d.NumCouplers() != 17 {
		t.Fatalf("couplers=%d want 17", d.NumCouplers())
	}
	if d.Distances().At(0, 11) != 5 {
		t.Errorf("corner distance %d want 5", d.Distances().At(0, 11))
	}
}

func TestGrid3x3Degrees(t *testing.T) {
	d := Grid3x3()
	if d.NumQubits() != 9 || d.NumCouplers() != 12 {
		t.Fatalf("grid3x3: %dq %de", d.NumQubits(), d.NumCouplers())
	}
	if got := d.Graph().Degree(4); got != 4 {
		t.Errorf("center degree %d want 4", got)
	}
	if got := d.Graph().Degree(0); got != 2 {
		t.Errorf("corner degree %d want 2", got)
	}
}

func TestStar(t *testing.T) {
	d := Star(6)
	if d.Graph().Degree(0) != 5 {
		t.Fatalf("hub degree %d", d.Graph().Degree(0))
	}
	if d.Distances().At(1, 2) != 2 {
		t.Errorf("spoke-to-spoke distance %d want 2", d.Distances().At(1, 2))
	}
}

func TestFullyConnected(t *testing.T) {
	d := FullyConnected(5)
	if d.NumCouplers() != 10 {
		t.Fatalf("K5 couplers=%d", d.NumCouplers())
	}
	if d.Graph().MaxDegree() != 4 {
		t.Errorf("K5 max degree %d", d.Graph().MaxDegree())
	}
}

func TestAspen4Topology(t *testing.T) {
	d := RigettiAspen4()
	if d.NumQubits() != 16 || d.NumCouplers() != 18 {
		t.Fatalf("aspen4: %dq %de, want 16q 18e", d.NumQubits(), d.NumCouplers())
	}
	deg3 := 0
	for v := 0; v < 16; v++ {
		switch d.Graph().Degree(v) {
		case 2:
		case 3:
			deg3++
		default:
			t.Fatalf("aspen4 vertex %d has degree %d", v, d.Graph().Degree(v))
		}
	}
	if deg3 != 4 {
		t.Errorf("aspen4 has %d degree-3 vertices, want 4 (two bridges)", deg3)
	}
	if !d.Graph().HasEdge(1, 14) || !d.Graph().HasEdge(2, 15) {
		t.Error("aspen4 bridge edges missing")
	}
	if !d.Graph().Connected() {
		t.Error("aspen4 disconnected")
	}
}

func TestSycamore54Topology(t *testing.T) {
	d := GoogleSycamore54()
	if d.NumQubits() != 54 {
		t.Fatalf("sycamore qubits=%d", d.NumQubits())
	}
	if d.NumCouplers() != 88 {
		t.Fatalf("sycamore couplers=%d want 88", d.NumCouplers())
	}
	if d.Graph().MaxDegree() != 4 {
		t.Errorf("sycamore max degree %d want 4", d.Graph().MaxDegree())
	}
	if !d.Graph().Connected() {
		t.Error("sycamore disconnected")
	}
	// Interior qubits should be degree 4; count them — the dense core is
	// what gives Sycamore its small optimality gap in the paper.
	deg4 := 0
	for v := 0; v < 54; v++ {
		if d.Graph().Degree(v) == 4 {
			deg4++
		}
	}
	if deg4 < 20 {
		t.Errorf("sycamore has only %d degree-4 qubits; expected a dense core", deg4)
	}
}

func TestRochester53Topology(t *testing.T) {
	d := IBMRochester53()
	if d.NumQubits() != 53 {
		t.Fatalf("rochester qubits=%d", d.NumQubits())
	}
	if d.Graph().MaxDegree() != 3 {
		t.Errorf("rochester max degree %d want 3 (heavy-hex)", d.Graph().MaxDegree())
	}
	if !d.Graph().Connected() {
		t.Fatal("rochester disconnected")
	}
	if d.NumCouplers() != 58 {
		t.Errorf("rochester couplers=%d want 58", d.NumCouplers())
	}
	// Heavy-hex sparsity: average degree close to 2.2, well under
	// Sycamore's ~3.26 — the structural property the paper blames for
	// Rochester's larger gap.
	avg := 2 * float64(d.NumCouplers()) / float64(d.NumQubits())
	if avg > 2.5 {
		t.Errorf("rochester average degree %.2f, expected sparse (<2.5)", avg)
	}
}

func TestEagle127Topology(t *testing.T) {
	d := IBMEagle127()
	if d.NumQubits() != 127 {
		t.Fatalf("eagle qubits=%d", d.NumQubits())
	}
	if d.NumCouplers() != 144 {
		t.Fatalf("eagle couplers=%d want 144", d.NumCouplers())
	}
	if d.Graph().MaxDegree() != 3 {
		t.Errorf("eagle max degree %d want 3", d.Graph().MaxDegree())
	}
	if !d.Graph().Connected() {
		t.Fatal("eagle disconnected")
	}
	// Every connector qubit has degree exactly 2 and joins two long rows.
	deg := map[int]int{}
	for v := 0; v < 127; v++ {
		deg[d.Graph().Degree(v)]++
	}
	if deg[1]+deg[2]+deg[3] != 127 {
		t.Errorf("unexpected degree distribution: %v", deg)
	}
}

func TestDistancesSymmetricOnPaperDevices(t *testing.T) {
	for _, d := range PaperDevices() {
		dist := d.Distances()
		n := d.NumQubits()
		for i := 0; i < n; i++ {
			if dist.At(i, i) != 0 {
				t.Fatalf("%s: dist[%d][%d]=%d", d.Name(), i, i, dist.At(i, i))
			}
			for j := 0; j < n; j++ {
				if dist.At(i, j) != dist.At(j, i) {
					t.Fatalf("%s: asymmetric distances", d.Name())
				}
				if dist.At(i, j) < 0 {
					t.Fatalf("%s: unreachable pair (%d,%d)", d.Name(), i, j)
				}
				if i != j && dist.At(i, j) == 1 != d.Graph().HasEdge(i, j) {
					t.Fatalf("%s: distance-1 does not match adjacency at (%d,%d)", d.Name(), i, j)
				}
			}
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"aspen4", "sycamore54", "rochester53", "eagle127", "grid3x3", "sycamore", "rochester", "eagle"} {
		if _, err := ByName(name); err != nil {
			t.Errorf("ByName(%q): %v", name, err)
		}
	}
	if _, err := ByName("nonexistent"); err == nil {
		t.Error("unknown device accepted")
	}
}

func TestNewDeviceRejectsDisconnected(t *testing.T) {
	g := graph.New(4)
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := NewDevice("bad", g); err == nil {
		t.Fatal("disconnected device accepted")
	}
}
