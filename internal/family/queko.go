package family

import (
	"fmt"
	"math/rand"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/graph"
	"repro/internal/router"
)

// QuekoDepthID identifies the depth-objective family.
const QuekoDepthID = "queko-depth/1"

// QuekoDepth is the registered depth-metric family, following Tan &
// Cong's QUEKO TFL/BSS construction (arXiv:2002.09783): every gate is
// placed on a coupling edge of the device under a fixed random mapping,
// arranged in T layers whose gates act on pairwise-disjoint qubits, with
// a backbone walk threading one gate through every layer so consecutive
// backbone gates share a qubit. The backbone forces any valid execution
// to take at least T two-qubit steps, and the layered in-place schedule
// achieves exactly T with zero SWAPs — so the optimal routed depth is T
// by construction, certified structurally on every instance.
var QuekoDepth = &Family{
	ID:         QuekoDepthID,
	Metric:     Depth,
	MinOptimal: 1,
}

// The function fields refer back to QuekoDepth, so they are attached
// here rather than in the literal (which would be an initialization
// cycle).
func init() {
	QuekoDepth.Generate = quekoGenerate
	QuekoDepth.Certify = quekoCertify
	Register(QuekoDepth)
}

func quekoGenerate(dev *arch.Device, opts Options) (*Instance, error) {
	T := opts.Optimal
	if T < 1 {
		return nil, fmt.Errorf("family: queko depth %d < 1", T)
	}
	if opts.MaxTwoQubitGates > 0 && T > opts.MaxTwoQubitGates {
		return nil, fmt.Errorf("family: queko backbone needs %d two-qubit gates, cap is %d",
			T, opts.MaxTwoQubitGates)
	}
	g := dev.Graph()
	edges := g.Edges()
	if len(edges) == 0 {
		return nil, fmt.Errorf("family: device %s has no coupling edges", dev.Name())
	}
	nP := dev.NumQubits()
	rng := rand.New(rand.NewSource(opts.Seed))

	finit := router.Mapping(rng.Perm(nP))
	inv := finit.Inverse(nP)

	// Backbone: a walk over adjacent coupling edges, one gate per layer.
	// Consecutive edges share a physical qubit — hence a program qubit —
	// so the backbone gates form a dependency chain of length exactly T:
	// the depth lower bound.
	layers := make([][]graph.Edge, T)
	used := make([][]bool, T) // per-layer physical-qubit occupancy
	for t := range used {
		used[t] = make([]bool, nP)
	}
	cur := edges[rng.Intn(len(edges))]
	for t := 0; t < T; t++ {
		if t > 0 {
			var adj []graph.Edge
			for _, e := range edges {
				if e == cur {
					continue
				}
				if e.U == cur.U || e.U == cur.V || e.V == cur.U || e.V == cur.V {
					adj = append(adj, e)
				}
			}
			if len(adj) > 0 {
				cur = adj[rng.Intn(len(adj))]
			}
			// A single-edge device repeats its edge; the chain still holds.
		}
		layers[t] = append(layers[t], cur)
		used[t][cur.U], used[t][cur.V] = true, true
	}

	// Padding: extra gates on coupling edges whose qubits are untouched
	// within their layer, so every layer stays executable in one parallel
	// step and the schedule never exceeds depth T. Best effort: when the
	// rejection budget runs out (layers saturated on a small device), the
	// circuit simply stays below the target — exactly like the qubikos
	// generator when its backbone exceeds the target.
	total := T
	want := 0
	if opts.TargetTwoQubitGates > total {
		want = opts.TargetTwoQubitGates - total
	}
	if opts.MaxTwoQubitGates > 0 && total+want > opts.MaxTwoQubitGates {
		want = opts.MaxTwoQubitGates - total
	}
	for added, attempts := 0, 0; added < want && attempts < 50*want+100; attempts++ {
		t := rng.Intn(T)
		e := edges[rng.Intn(len(edges))]
		if used[t][e.U] || used[t][e.V] {
			continue
		}
		layers[t] = append(layers[t], e)
		used[t][e.U], used[t][e.V] = true, true
		added++
	}

	c := circuit.New(nP)
	for t := 0; t < T; t++ {
		for _, e := range layers[t] {
			c.MustAppend(quekoTwoQubit(rng, inv[e.U], inv[e.V]))
		}
	}
	for i := 0; i < opts.SingleQubitGates; i++ {
		pos := rng.Intn(len(c.Gates) + 1)
		gate := quekoSingleQubit(rng, nP)
		c.Gates = append(c.Gates, circuit.Gate{})
		copy(c.Gates[pos+1:], c.Gates[pos:])
		c.Gates[pos] = gate
	}

	inst := &Instance{
		Family:  QuekoDepth,
		Device:  dev,
		Circuit: c,
		Solution: &router.Result{
			Tool:           "queko-construction",
			InitialMapping: finit.Clone(),
			Transpiled:     c.Clone(),
			SwapCount:      0,
		},
		InitialMapping: finit,
		Optimal:        T,
		OptSwaps:       0,
		SwapSchedule:   [][2]int{},
		Seed:           opts.Seed,
	}
	// Always-on self-check: the load-time certificate, on the sidecar this
	// instance serializes to.
	li := &Loaded{Meta: *inst.sidecar(), Family: QuekoDepth, Device: dev, Circuit: c, Solution: inst.Solution}
	if err := quekoCertify(li); err != nil {
		return nil, fmt.Errorf("family: internal error, queko construction invalid: %w", err)
	}
	return inst, nil
}

// quekoCertify is the load-time certificate: purely from the serialized
// circuit and sidecar it re-establishes that the optimal routed depth is
// exactly the claimed value — the planted mapping executes every gate in
// place (upper bound, no SWAPs, depth = dependency depth) and the
// dependency depth itself is the claimed optimum (lower bound for any
// valid execution).
func quekoCertify(li *Loaded) error {
	meta := li.Meta
	if m := meta.MetricOf(); m != Depth {
		return fmt.Errorf("family: queko sidecar carries metric %q, want %q", m, Depth)
	}
	T := meta.OptimalDepth
	if T < 1 {
		return fmt.Errorf("family: queko sidecar claims depth %d < 1", T)
	}
	if meta.OptimalSwaps != 0 || len(meta.SwapSchedule) != 0 {
		return fmt.Errorf("family: queko sidecar schedules SWAPs (%d claimed, %d scheduled)",
			meta.OptimalSwaps, len(meta.SwapSchedule))
	}
	m := router.Mapping(meta.InitialMapping)
	g := li.Device.Graph()
	for i, gate := range li.Circuit.Gates {
		if gate.Kind == circuit.Swap {
			return fmt.Errorf("family: queko circuit contains a SWAP at gate %d", i)
		}
		if !gate.TwoQubit() {
			continue
		}
		pa, pb := m[gate.Q0], m[gate.Q1]
		if !g.HasEdge(pa, pb) {
			return fmt.Errorf("family: gate %d (%v) not executable in place under the planted mapping (p%d,p%d)",
				i, gate, pa, pb)
		}
	}
	if d := li.Circuit.TwoQubitDepth(); d != T {
		return fmt.Errorf("family: circuit two-qubit depth %d != claimed optimum %d", d, T)
	}
	// When the stored witness was loaded, hold it to the same promise:
	// a valid zero-SWAP transpilation at exactly the claimed depth.
	if li.Solution != nil {
		if li.Solution.SwapCount != 0 {
			return fmt.Errorf("family: stored witness uses %d SWAPs, want 0", li.Solution.SwapCount)
		}
		if err := router.Validate(li.Circuit, li.Device, li.Solution); err != nil {
			return fmt.Errorf("family: stored witness invalid: %w", err)
		}
		if d := li.Solution.Transpiled.TwoQubitDepth(); d != T {
			return fmt.Errorf("family: stored witness has depth %d, claimed optimum %d", d, T)
		}
	}
	return nil
}

func quekoTwoQubit(rng *rand.Rand, a, b int) circuit.Gate {
	if rng.Intn(2) == 0 {
		a, b = b, a
	}
	if rng.Intn(4) == 0 {
		return circuit.Gate{Kind: circuit.CZ, Q0: a, Q1: b}
	}
	return circuit.NewCX(a, b)
}

func quekoSingleQubit(rng *rand.Rand, nQ int) circuit.Gate {
	q := rng.Intn(nQ)
	switch rng.Intn(3) {
	case 0:
		return circuit.NewH(q)
	case 1:
		return circuit.NewX(q)
	default:
		return circuit.NewRZ(q, float64(rng.Intn(64))*0.0981747704246810387) // k*pi/32
	}
}
