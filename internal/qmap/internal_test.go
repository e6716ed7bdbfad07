package qmap

import (
	"math/rand"
	"testing"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/router"
)

func TestZobristKeysDistinct(t *testing.T) {
	z := zobristFor(8, 8)
	seen := map[uint64]bool{}
	for _, k := range z {
		if k == 0 {
			t.Fatal("zero zobrist key")
		}
		if seen[k] {
			t.Fatal("duplicate zobrist key")
		}
		seen[k] = true
	}
	// Deterministic across calls.
	z2 := zobristFor(8, 8)
	for i := range z {
		if z[i] != z2[i] {
			t.Fatal("zobrist table not deterministic")
		}
	}
}

func TestZobristSwapInvariance(t *testing.T) {
	// Hash after swap then swap-back equals the original; hash of a
	// mapping is independent of the path that reached it.
	nQ, nP := 5, 5
	z := zobristFor(nQ, nP)
	m := router.Mapping{3, 1, 4, 0, 2}
	h := uint64(0)
	for q, p := range m {
		h ^= z[q*nP+p]
	}
	apply := func(h uint64, a, b int) uint64 {
		pa, pb := m[a], m[b]
		h ^= z[a*nP+pa] ^ z[a*nP+pb] ^ z[b*nP+pb] ^ z[b*nP+pa]
		m.SwapProgram(a, b)
		return h
	}
	h1 := apply(h, 0, 3)
	h2 := apply(h1, 0, 3)
	if h2 != h {
		t.Fatal("swap-back hash mismatch")
	}
	// Two different orders reaching the same mapping agree.
	ha := apply(apply(h, 1, 2), 3, 4)
	// Undo.
	ha2 := apply(apply(ha, 3, 4), 1, 2)
	if ha2 != h {
		t.Fatal("path-dependent hash")
	}
}

func TestApplyReconstructsSwapPath(t *testing.T) {
	// The arena replaces per-node swap paths: apply must re-materialize a
	// node's mapping by replaying its root path, and appliedSeq must
	// return that path in root-to-node order.
	dev := arch.Line(4)
	e := newEngine(dev, 4)
	e.states = append(e.states,
		astate{parent: -1},
		astate{parent: 0, swap: [2]int16{0, 1}, depth: 1},
		astate{parent: 1, swap: [2]int16{2, 3}, depth: 2},
	)
	m := router.IdentityMapping(4)
	inv := m.Inverse(4)
	e.apply(2, m, inv)
	seq := e.appliedSeq()
	if len(seq) != 2 || seq[0] != [2]int{0, 1} || seq[1] != [2]int{2, 3} {
		t.Fatalf("seq=%v", seq)
	}
	want := router.Mapping{1, 0, 3, 2}
	for q := range want {
		if m[q] != want[q] {
			t.Fatalf("mapping after replay = %v, want %v", m, want)
		}
	}
	// Jumping back to the root rewinds everything.
	e.apply(0, m, inv)
	if e.appliedSeq() != nil {
		t.Fatal("root has a sequence")
	}
	for q := 0; q < 4; q++ {
		if m[q] != q {
			t.Fatalf("rewind left mapping %v", m)
		}
	}
}

// TestU64SetMembership runs the closed set against a map[uint64]bool
// model through 600 resets, past two wraps of its one-byte epoch. Most
// layers are small, so a key from 255 or 256 resets earlier usually
// still sits in its slot under its old stamp. Each layer adds again key
// 0 of the layer 255 resets back and key 1 of the layer 256 back; no
// layer in between wrote either, so only the stamp clear at the wrap
// keeps them absent. Two layers grow the table mid-layer, one of them
// after a wrap, and key 0 recurs.
func TestU64SetMembership(t *testing.T) {
	layerKey := func(layer, i int) uint64 { return splitmix64(uint64(layer)<<32 | uint64(i)) }
	var s u64set
	for layer := 0; layer < 600; layer++ {
		s.reset()
		model := map[uint64]bool{}
		add := func(k uint64) {
			want := !model[k]
			model[k] = true
			if got := s.addIfAbsent(k); got != want {
				t.Fatalf("layer %d: addIfAbsent(%#x) = %v, want %v", layer, k, got, want)
			}
		}
		n := 2 + layer%7
		switch layer {
		case 3:
			n = 5000
		case 520:
			n = 8000
		}
		size := len(s.keys)
		for i := 0; i < n; i++ {
			add(layerKey(layer, i))
		}
		if n > 1000 && len(s.keys) == size {
			t.Fatalf("layer %d: %d keys did not grow the %d-slot table", layer, n, size)
		}
		if layer >= 255 {
			add(layerKey(layer-255, 0))
		}
		if layer >= 256 {
			add(layerKey(layer-256, 1))
		}
		if layer%5 == 0 {
			add(0)
		}
		for i := 0; i < n; i++ {
			add(layerKey(layer, i))
		}
	}
}

func TestSearchLayerGoalAtStart(t *testing.T) {
	c := circuit.New(2)
	c.MustAppend(circuit.NewCX(0, 1))
	dev := arch.Line(2)
	r := New(Options{Seed: 1})
	dag := circuit.NewDAG(c)
	seq, final := r.ensureEngine(dev, 2).searchLayer(r.opts, router.IdentityMapping(2), []int{0}, nil, dag)
	if len(seq) != 0 {
		t.Fatalf("swaps inserted for an executable layer: %v", seq)
	}
	if final[0] != 0 || final[1] != 1 {
		t.Fatalf("mapping changed: %v", final)
	}
}

func TestSearchLayerSolvesDistanceTwo(t *testing.T) {
	// q0 at p0, q1 at p2 on a 3-line: exactly one swap is optimal.
	c := circuit.New(3)
	c.MustAppend(circuit.NewCX(0, 1))
	dev := arch.Line(3)
	r := New(Options{Seed: 1})
	dag := circuit.NewDAG(c)
	start := router.Mapping{0, 2, 1} // q1 at p2, q2 (unused) at p1
	seq, final := r.ensureEngine(dev, 3).searchLayer(r.opts, start, []int{0}, nil, dag)
	if len(seq) != 1 {
		t.Fatalf("expected exactly 1 swap, got %v", seq)
	}
	if !dev.Graph().HasEdge(final[0], final[1]) {
		t.Fatal("layer not executable after search")
	}
}

// TestSearchLayerSteadyStateAllocs pins the arena rewrite: once the
// engine's scratch (state arena, successor list, open-list heap, closed
// set, touch lists) has grown to fit a layer, repeated layer searches
// allocate only their returned swap sequence and final mapping — node
// expansion itself is allocation-free.
func TestSearchLayerSteadyStateAllocs(t *testing.T) {
	dev := arch.RigettiAspen4()
	nQ := dev.NumQubits()
	c := circuit.New(nQ)
	c.MustAppend(circuit.NewCX(0, 4), circuit.NewCX(8, 12), circuit.NewCX(2, 6))
	dag := circuit.NewDAG(c)
	layer := dag.Layers()[0]
	start := router.IdentityMapping(nQ)
	r := New(Options{MaxNodes: 500, Seed: 1})
	e := r.ensureEngine(dev, nQ)
	search := func() { e.searchLayer(r.opts, start, layer, nil, dag) }
	search() // warm-up: arena, heap, and closed set grow once
	if a := testing.AllocsPerRun(20, search); a > 4 {
		t.Fatalf("warm layer search allocates %.1f objects, want at most the returned seq+mapping (4)", a)
	}
	if e.cntPops == 0 || e.cntGen == 0 {
		t.Fatalf("instrumented search recorded no work: pops=%d generated=%d", e.cntPops, e.cntGen)
	}
}

func TestInitialPlacementInjective(t *testing.T) {
	b := circuit.New(54)
	b.MustAppend(circuit.NewCX(0, 1), circuit.NewCX(1, 2), circuit.NewCX(0, 2))
	dev := arch.GoogleSycamore54()
	r := New(Options{Seed: 3})
	_ = r
	m := initialPlacement(b, dev, newRand(3))
	if err := m.Validate(dev.NumQubits()); err != nil {
		t.Fatal(err)
	}
	// Highest interaction degree lands on a max-degree physical qubit.
	ig := b.InteractionGraph()
	maxQ, maxD := 0, -1
	for q := 0; q < b.NumQubits; q++ {
		if d := ig.Degree(q); d > maxD {
			maxQ, maxD = q, d
		}
	}
	if dev.Graph().Degree(m[maxQ]) != dev.Graph().MaxDegree() {
		t.Errorf("hub qubit placed on degree-%d location", dev.Graph().Degree(m[maxQ]))
	}
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
