// Package family is the registry of benchmark families. A family bundles
// a deterministic, seed-driven generator with the metric its instances
// carry a known optimum for (SWAP count or routed depth) and a structural
// per-instance certificate checker that re-validates the optimality
// argument from an instance's serialized form. Loading runs only the
// sidecar cross-checks (Loaded.Check); the certificate runs in the
// harness certifier, on every instance the Section IV-A study generates
// and every instance qubikos-verify -suite loads. The content-addressed
// suite store, the evaluation harness, the HTTP server and every CLI
// dispatch on family IDs registered here, so adding a benchmark family
// (noise-aware, near-optimal QUEKNO-style, ...) is one Register call plus
// a generator — no changes to the storage, scoring or serving layers.
//
// Two families ship today:
//
//   - qubikos-go/1 — the paper's primary contribution: circuits with a
//     provably optimal SWAP count (package qubikos).
//   - queko-depth/1 — a QUEKO-style depth-objective family (Tan & Cong,
//     arXiv:2002.09783): a gate backbone saturates a known-depth skeleton
//     on the device, so the optimal routed depth is known by construction
//     and certified structurally on every instance.
package family

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/router"
)

// Metric names the quantity a family's instances carry a known optimum
// for. Layout-synthesis tools are scored by the ratio of their achieved
// value to that optimum.
type Metric string

const (
	// Swaps scores the number of inserted SWAP gates (the paper's
	// optimality-gap metric).
	Swaps Metric = "swaps"
	// Depth scores the routed two-qubit depth, with SWAPs costing their
	// standard 3-CX decomposition (the QUEKO/OLSQ depth objective).
	Depth Metric = "depth"
)

// Achieved extracts a result's value of the metric. The zero Metric is
// treated as Swaps so pre-registry rows and items keep scoring.
func (m Metric) Achieved(res *router.Result) int {
	if m == Depth {
		return res.RoutedDepth()
	}
	return res.SwapCount
}

// Ratio is the per-metric optimality gap: achieved over known optimal.
// It panics on a non-positive optimum; scoring paths (harness) reject
// non-positive optima with an error before ever calling it, so the
// panic is defense-in-depth against new callers skipping that guard.
func (m Metric) Ratio(achieved, optimal int) float64 {
	if optimal <= 0 {
		panic(fmt.Sprintf("family: %s ratio needs a positive optimum, got %d", m, optimal))
	}
	return float64(achieved) / float64(optimal)
}

// Options is the family-generic recipe for one instance. Fields a family
// does not use are ignored (the depth family has no PreferHighDegree
// bias, for example); every field participates in suite content hashes,
// so ignored fields still distinguish stored suites.
type Options struct {
	// Optimal is the known-optimal metric value to construct: the SWAP
	// count for swap-metric families, the routed depth for depth-metric
	// families.
	Optimal int
	// TargetTwoQubitGates pads the circuit with redundant two-qubit gates
	// up to this total (0 = backbone only). Padding never changes the
	// constructed optimum.
	TargetTwoQubitGates int
	// MaxTwoQubitGates, when positive, is a hard cap on two-qubit gates.
	MaxTwoQubitGates int
	// SingleQubitGates sprinkles this many single-qubit gates for realism;
	// they affect neither metric.
	SingleQubitGates int
	// PreferHighDegree biases the qubikos generator toward max-degree
	// sections; other families ignore it.
	PreferHighDegree bool
	// Seed drives all randomness; the same seed reproduces the instance.
	Seed int64
}

// Instance is one generated benchmark: a circuit, the known-optimal
// witness transpilation, and the knowledge the certificate rests on.
type Instance struct {
	Family  *Family
	Device  *arch.Device
	Circuit *circuit.Circuit
	// Solution is the witness: a valid transpilation achieving the
	// claimed optimum (exactly Optimal SWAPs for swap-metric families,
	// exactly Optimal routed depth with zero SWAPs for the depth family).
	Solution *router.Result
	// InitialMapping is the optimal initial placement.
	InitialMapping router.Mapping
	// Optimal is the provably optimal value of Family.Metric.
	Optimal int
	// OptSwaps is the known-optimal SWAP count when the construction
	// fixes one (equal to Optimal for swap-metric families, 0 for the
	// depth family, whose witness needs no SWAPs).
	OptSwaps int
	// SwapSchedule lists the witness's SWAPs on program qubits, in order.
	SwapSchedule [][2]int
	Seed         int64
	// Verify re-runs the family's full structural optimality check using
	// generation-time metadata (deeper than Certify, which sees only the
	// serialized form).
	Verify func() error
}

// Family describes one registered benchmark family.
type Family struct {
	// ID is the family's stable identity; it participates in suite
	// content hashes, so any change to the generator that alters emitted
	// circuits must bump it.
	ID string
	// Metric is the quantity instances carry a known optimum for.
	Metric Metric
	// MinOptimal is the smallest grid value the generator accepts.
	MinOptimal int
	// Generate deterministically constructs one instance.
	Generate func(dev *arch.Device, opts Options) (*Instance, error)
	// Certify structurally re-checks a loaded instance's optimality
	// certificate from its serialized form (circuit + sidecar, plus the
	// witness transpilation when the family needs it).
	Certify func(li *Loaded) error
}

var (
	mu       sync.RWMutex
	registry = map[string]*Family{}
)

// Register adds a family to the registry; duplicate IDs panic (they
// would silently re-key stored suites).
func Register(f *Family) {
	mu.Lock()
	defer mu.Unlock()
	if f.ID == "" {
		panic("family: empty ID")
	}
	if _, dup := registry[f.ID]; dup {
		panic("family: duplicate registration of " + f.ID)
	}
	registry[f.ID] = f
}

// ByID returns the registered family, or an error naming every
// registered ID so callers can surface actionable messages.
func ByID(id string) (*Family, error) {
	mu.RLock()
	f, ok := registry[id]
	mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("family: unknown family %q (registered: %s)", id, strings.Join(IDs(), ", "))
	}
	return f, nil
}

// Resolve is ByID plus shorthand support: "qubikos-go", "queko-depth"
// (IDs minus the version suffix) and the historical "qubikos" select the
// matching registered family. CLIs use it for their -family flags.
func Resolve(name string) (*Family, error) {
	if f, err := ByID(name); err == nil {
		return f, nil
	}
	want := name
	if name == "qubikos" {
		want = "qubikos-go"
	}
	mu.RLock()
	defer mu.RUnlock()
	var match *Family
	for id, f := range registry {
		base := id
		if i := strings.IndexByte(id, '/'); i >= 0 {
			base = id[:i]
		}
		if base == want {
			if match != nil {
				return nil, fmt.Errorf("family: ambiguous family %q", name)
			}
			match = f
		}
	}
	if match == nil {
		return nil, fmt.Errorf("family: unknown family %q (registered: %s)", name, strings.Join(IDs(), ", "))
	}
	return match, nil
}

// IDs returns every registered family ID, sorted.
func IDs() []string {
	mu.RLock()
	defer mu.RUnlock()
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// ParseGrid parses a CLI grid flag: comma-separated decimal integers,
// each at least min (the family's MinOptimal, or a caller's stricter
// floor). Tokens are trimmed and parsed whole, so "1e3", "5.9" and "2x"
// are errors, not 1, 5 and 2.
func ParseGrid(list string, min int) ([]int, error) {
	var out []int
	for _, part := range strings.Split(list, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < min {
			return nil, fmt.Errorf("bad grid value %q (minimum %d)", part, min)
		}
		out = append(out, n)
	}
	return out, nil
}
