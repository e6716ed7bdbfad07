// Package arch defines the superconducting-device coupling graphs used in
// the QUBIKOS paper: generic families (line, ring, grid, star, fully
// connected) and the four evaluation architectures — Rigetti Aspen-4
// (16 qubits), Google Sycamore (54 qubits), IBM Rochester (53 qubits,
// heavy-hex) and IBM Eagle (127 qubits, heavy-hex). Device coupling maps
// are reconstructed from published topology descriptions; quantum layout
// synthesis consumes only the coupling graph, so this reconstruction
// preserves everything the paper's experiments exercise.
package arch

import (
	"fmt"
	"sync"

	"repro/internal/graph"
)

// Device is a named coupling graph with a lazily computed all-pairs
// distance matrix. Devices are immutable after construction.
type Device struct {
	name string
	g    *graph.Graph

	distOnce sync.Once
	dist     *graph.DistanceMatrix
}

// NewDevice wraps a coupling graph. The graph must be connected: layout
// synthesis on a disconnected device is ill-defined for circuits whose
// interaction graph spans components.
func NewDevice(name string, g *graph.Graph) (*Device, error) {
	if !g.Connected() {
		return nil, fmt.Errorf("arch: device %q coupling graph is disconnected", name)
	}
	return &Device{name: name, g: g}, nil
}

func mustDevice(name string, g *graph.Graph) *Device {
	d, err := NewDevice(name, g)
	if err != nil {
		panic(err)
	}
	return d
}

// Name returns the device name.
func (d *Device) Name() string { return d.name }

// Graph returns the coupling graph. Callers must not mutate it.
func (d *Device) Graph() *graph.Graph { return d.g }

// NumQubits returns the number of physical qubits.
func (d *Device) NumQubits() int { return d.g.N() }

// NumCouplers returns the number of coupling edges.
func (d *Device) NumCouplers() int { return d.g.M() }

// Distances returns the all-pairs shortest-path (hop) matrix as a flat,
// cache-friendly graph.DistanceMatrix. The matrix is computed once
// (multi-source BFS into one contiguous buffer) and shared; callers must
// not modify it.
func (d *Device) Distances() *graph.DistanceMatrix {
	d.distOnce.Do(func() { d.dist = graph.NewDistanceMatrix(d.g) })
	return d.dist
}

// Line returns a 1-D chain of n qubits.
func Line(n int) *Device {
	g := graph.New(n)
	for i := 0; i+1 < n; i++ {
		mustAdd(g, i, i+1)
	}
	return mustDevice(fmt.Sprintf("line-%d", n), g)
}

// Ring returns a cycle of n qubits (n >= 3).
func Ring(n int) *Device {
	if n < 3 {
		panic("arch: ring needs at least 3 qubits")
	}
	g := graph.New(n)
	for i := 0; i < n; i++ {
		mustAdd(g, i, (i+1)%n)
	}
	return mustDevice(fmt.Sprintf("ring-%d", n), g)
}

// Grid returns an r x c rectangular lattice with nearest-neighbor coupling.
// Qubit (i,j) has index i*c+j.
func Grid(r, c int) *Device {
	if r < 1 || c < 1 {
		panic("arch: grid dimensions must be positive")
	}
	g := graph.New(r * c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			v := i*c + j
			if j+1 < c {
				mustAdd(g, v, v+1)
			}
			if i+1 < r {
				mustAdd(g, v, v+c)
			}
		}
	}
	return mustDevice(fmt.Sprintf("grid-%dx%d", r, c), g)
}

// Grid3x3 is the 9-qubit square grid used in the paper's Section IV-A
// optimality study.
func Grid3x3() *Device { return Grid(3, 3) }

// Star returns a hub-and-spoke device with qubit 0 at the center.
func Star(n int) *Device {
	if n < 2 {
		panic("arch: star needs at least 2 qubits")
	}
	g := graph.New(n)
	for i := 1; i < n; i++ {
		mustAdd(g, 0, i)
	}
	return mustDevice(fmt.Sprintf("star-%d", n), g)
}

// FullyConnected returns the complete coupling graph on n qubits. QUBIKOS
// generation is impossible on it (no SWAP can introduce a new neighbor),
// which the generator reports as an error; it exists for negative tests.
func FullyConnected(n int) *Device {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			mustAdd(g, i, j)
		}
	}
	return mustDevice(fmt.Sprintf("complete-%d", n), g)
}

// RigettiAspen4 returns the 16-qubit Aspen-4 topology: two octagonal rings
// (qubits 0-7 and 8-15) bridged by the edges (1,14) and (2,15), following
// the layout used by the QUEKO/QUBIKOS papers. Degrees are 2 and 3.
func RigettiAspen4() *Device {
	g := graph.New(16)
	for i := 0; i < 8; i++ {
		mustAdd(g, i, (i+1)%8)
		mustAdd(g, 8+i, 8+(i+1)%8)
	}
	mustAdd(g, 1, 14)
	mustAdd(g, 2, 15)
	return mustDevice("aspen4", g)
}

// GoogleSycamore54 returns the 54-qubit Sycamore topology as an idealized
// 9x6 diagonal (brick) grid: each qubit in row r couples to the qubit
// directly below and to one diagonal neighbor whose column offset
// alternates with the row parity. This yields 88 couplers with interior
// degree 4, matching the published device diagrams.
func GoogleSycamore54() *Device {
	const rows, cols = 9, 6
	g := graph.New(rows * cols)
	idx := func(r, c int) int { return r*cols + c }
	for r := 0; r+1 < rows; r++ {
		for c := 0; c < cols; c++ {
			mustAdd(g, idx(r, c), idx(r+1, c))
			// Diagonal partner: rows alternate leaning right and left.
			if r%2 == 0 {
				if c+1 < cols {
					mustAdd(g, idx(r, c), idx(r+1, c+1))
				}
			} else {
				if c-1 >= 0 {
					mustAdd(g, idx(r, c), idx(r+1, c-1))
				}
			}
		}
	}
	return mustDevice("sycamore54", g)
}

// IBMRochester53 returns the 53-qubit Rochester heavy-hex-style topology,
// reconstructed from the published ibmq_rochester coupling diagram: four
// nine-qubit horizontal rows joined by two-qubit vertical connectors, with
// short caps at top and bottom. Max degree is 3.
func IBMRochester53() *Device {
	edges := [][2]int{
		// top cap row (qubits 0-4) and its drops
		{0, 1}, {1, 2}, {2, 3}, {3, 4},
		{0, 5}, {4, 6},
		{5, 9}, {6, 13},
		// row 1 (qubits 7-15)
		{7, 8}, {8, 9}, {9, 10}, {10, 11}, {11, 12}, {12, 13}, {13, 14}, {14, 15},
		{7, 16}, {11, 17}, {15, 18},
		{16, 19}, {17, 23}, {18, 27},
		// row 2 (qubits 19-27)
		{19, 20}, {20, 21}, {21, 22}, {22, 23}, {23, 24}, {24, 25}, {25, 26}, {26, 27},
		{21, 28}, {25, 29},
		{28, 32}, {29, 36},
		// row 3 (qubits 30-38)
		{30, 31}, {31, 32}, {32, 33}, {33, 34}, {34, 35}, {35, 36}, {36, 37}, {37, 38},
		{30, 39}, {34, 40}, {38, 41},
		{39, 42}, {40, 46}, {41, 50},
		// row 4 (qubits 42-50)
		{42, 43}, {43, 44}, {44, 45}, {45, 46}, {46, 47}, {47, 48}, {48, 49}, {49, 50},
		// bottom cap
		{44, 51}, {48, 52},
	}
	g := graph.New(53)
	for _, e := range edges {
		mustAdd(g, e[0], e[1])
	}
	return mustDevice("rochester53", g)
}

// IBMEagle127 returns the 127-qubit Eagle (heavy-hex) topology generated
// from the standard lattice pattern: seven long horizontal rows (the first
// and last hold 14 qubits, the middle five hold 15) interleaved with six
// rows of four vertical connector qubits, connectors attaching at columns
// congruent to 0 or 2 (mod 4) in alternation. This reproduces the
// ibm_washington-class layout: 127 qubits, 144 couplers, max degree 3.
// (HeavyHex(7, 15) generates the same lattice; this explicit version is
// kept as the reference the parametric generator is tested against.)
func IBMEagle127() *Device {
	type rowSpec struct{ lo, hi int } // inclusive column range of a long row
	longRows := []rowSpec{
		{0, 13},                                     // row 0: 14 qubits
		{0, 14}, {0, 14}, {0, 14}, {0, 14}, {0, 14}, // rows 1-5: 15 qubits
		{1, 14}, // row 6: 14 qubits
	}
	// Assign indices: long row r, then its connector row, alternating.
	id := map[[2]int]int{} // {longRow, col} -> qubit index
	next := 0
	connCols := func(r int) []int {
		if r%2 == 0 {
			return []int{0, 4, 8, 12}
		}
		return []int{2, 6, 10, 14}
	}
	connID := map[[2]int]int{} // {gapIndex, col} -> qubit index
	for r, spec := range longRows {
		for c := spec.lo; c <= spec.hi; c++ {
			id[[2]int{r, c}] = next
			next++
		}
		if r+1 < len(longRows) {
			for _, c := range connCols(r) {
				connID[[2]int{r, c}] = next
				next++
			}
		}
	}
	if next != 127 {
		panic(fmt.Sprintf("arch: eagle lattice produced %d qubits, want 127", next))
	}
	g := graph.New(127)
	for r, spec := range longRows {
		for c := spec.lo; c < spec.hi; c++ {
			mustAdd(g, id[[2]int{r, c}], id[[2]int{r, c + 1}])
		}
	}
	for r := 0; r+1 < len(longRows); r++ {
		for _, c := range connCols(r) {
			v := connID[[2]int{r, c}]
			top, okT := id[[2]int{r, c}]
			bot, okB := id[[2]int{r + 1, c}]
			if !okT || !okB {
				panic(fmt.Sprintf("arch: eagle connector at gap %d col %d misses a row qubit", r, c))
			}
			mustAdd(g, v, top)
			mustAdd(g, v, bot)
		}
	}
	return mustDevice("eagle127", g)
}

// ByName returns the named device. It recognizes the paper architectures
// (aspen4, sycamore54, rochester53, eagle127, falcon27, hummingbird65),
// the study's grid3x3 shorthand, and the parametric families by their
// canonical Device.Name() spellings — line-N, ring-N, star-N,
// complete-N, grid-RxC, heavyhex-RxC — so every name this package emits
// round-trips through ByName. Benchmark sidecars and suite manifests
// rely on that round trip. Unknown names return an error listing the
// fixed choices.
//
// A fixed name (aliases included) returns one shared Device per
// process, so its coupling graph and distance matrix are built once
// however many instances name it. Devices are immutable, which makes
// the sharing safe. A parametric name builds a fresh Device on every
// call, so no cache grows with the names a caller sends.
func ByName(name string) (*Device, error) {
	switch name {
	case "aspen4":
		return sharedAspen4(), nil
	case "sycamore54", "sycamore":
		return sharedSycamore54(), nil
	case "rochester53", "rochester":
		return sharedRochester53(), nil
	case "eagle127", "eagle":
		return sharedEagle127(), nil
	case "grid3x3":
		return sharedGrid3x3(), nil
	case "falcon27", "falcon":
		return sharedFalcon27(), nil
	case "hummingbird65", "hummingbird":
		return sharedHummingbird65(), nil
	}
	if dev, ok := parametricByName(name); ok {
		return dev, nil
	}
	return nil, fmt.Errorf("arch: unknown device %q (valid: aspen4, sycamore54, rochester53, eagle127, grid3x3, falcon27, hummingbird65, or a parametric name like grid-3x3, line-16, ring-12, star-8, complete-5, heavyhex-2x5)", name)
}

// The devices ByName shares, each built on first use.
var (
	sharedAspen4        = sync.OnceValue(RigettiAspen4)
	sharedSycamore54    = sync.OnceValue(GoogleSycamore54)
	sharedRochester53   = sync.OnceValue(IBMRochester53)
	sharedEagle127      = sync.OnceValue(IBMEagle127)
	sharedGrid3x3       = sync.OnceValue(Grid3x3)
	sharedFalcon27      = sync.OnceValue(IBMFalcon27)
	sharedHummingbird65 = sync.OnceValue(IBMHummingbird65)
)

// MaxParametricQubits bounds the device size ByName will construct for a
// parametric name. Names reach ByName from untrusted inputs (suite
// manifests over HTTP, CLI flags), and constructing a device allocates
// O(n²) bits of adjacency, so an unbounded "grid-100000x100000" would be
// a one-request out-of-memory. The bound is far above every real device.
const MaxParametricQubits = 4096

// MaxParametricCouplers bounds the coupler count ByName will construct
// for a parametric name, beside MaxParametricQubits: a device costs about
// 120 bytes per coupler, so complete-2048 (2,096,128 couplers) would
// allocate about 300 MB for one request. At this bound every admitted
// name builds in about 3 MB or less; grid-64x64 has 8,064 couplers and
// complete-181, the largest complete device admitted, 16,290.
const MaxParametricCouplers = 16384

// parametricByName parses the canonical names of the parametric device
// families. Construction panics on out-of-range sizes, so bounds —
// including the MaxParametricQubits and MaxParametricCouplers allocation
// guards — are checked here, before any construction, and bad sizes fall
// through to ByName's error.
func parametricByName(name string) (dev *Device, ok bool) {
	var a, b int
	fits := func(qubits, couplers int) bool {
		return qubits <= MaxParametricQubits && couplers <= MaxParametricCouplers
	}
	// Check factors individually before multiplying so huge parses cannot
	// overflow the products.
	small := func(a, b int) bool { return a <= MaxParametricQubits && b <= MaxParametricQubits }
	switch {
	case scan2(name, "grid-%dx%d", &a, &b) && a >= 1 && b >= 1 && small(a, b) && fits(a*b, a*(b-1)+b*(a-1)):
		return Grid(a, b), true
	// HeavyHex panics below 2 rows × 5 columns; a cell block is well
	// under 16 qubits, bounding the cell grid, and no qubit has more than
	// three couplers.
	case scan2(name, "heavyhex-%dx%d", &a, &b) && a >= 2 && b >= 5 && small(a, b) && fits(16*a*b, 24*a*b):
		return HeavyHex(a, b), true
	case scan1(name, "line-%d", &a) && a >= 1 && fits(a, a-1):
		return Line(a), true
	case scan1(name, "ring-%d", &a) && a >= 3 && fits(a, a):
		return Ring(a), true
	case scan1(name, "star-%d", &a) && a >= 2 && fits(a, a-1):
		return Star(a), true
	case scan1(name, "complete-%d", &a) && a >= 1 && small(a, a) && fits(a, a*(a-1)/2):
		return FullyConnected(a), true
	}
	return nil, false
}

// scan1 and scan2 parse a full-string pattern: the match must consume the
// whole name (Sscanf alone would accept trailing garbage on %d patterns
// only sometimes, so the result is re-rendered and compared).
func scan1(name, pattern string, a *int) bool {
	if _, err := fmt.Sscanf(name, pattern, a); err != nil {
		return false
	}
	return fmt.Sprintf(pattern, *a) == name
}

func scan2(name, pattern string, a, b *int) bool {
	if _, err := fmt.Sscanf(name, pattern, a, b); err != nil {
		return false
	}
	return fmt.Sprintf(pattern, *a, *b) == name
}

// PaperDevices returns the four evaluation architectures in the order they
// appear in Figure 4 of the paper.
func PaperDevices() []*Device {
	return []*Device{RigettiAspen4(), GoogleSycamore54(), IBMRochester53(), IBMEagle127()}
}

func mustAdd(g *graph.Graph, u, v int) {
	if err := g.AddEdge(u, v); err != nil {
		panic(err)
	}
}
