package suite

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/arch"
	"repro/internal/family"
)

// SchemaVersion identifies the manifest/sidecar layout. Bump it when the
// serialized form changes incompatibly; old store entries keyed under the
// previous version stay valid but are never aliased to the new one.
const SchemaVersion = 1

// GeneratorID names the default generation family (the paper's
// swap-optimal QUBIKOS construction). The Generator field participates
// in the content hash, so any change to a family's generator that alters
// emitted circuits must bump that family's registered ID — otherwise
// stale store entries would satisfy manifests they no longer match.
const GeneratorID = family.QubikosID

// Manifest is the complete, deterministic recipe for one benchmark
// suite: the generating family, the device, the grid of known-optimal
// metric values, how many circuits per grid value, every generator
// option, and the base seed. Two manifests with equal normalized fields
// denote bit-identical suites, and Hash gives the content address both
// resolve to.
//
// Exactly one grid is populated, matching the family's metric:
// SwapCounts for swap-metric families, Depths for depth-metric ones. The
// Depths field postdates the store and is omitted when empty, so every
// qubikos-go/1 manifest hashes to the address it had before the family
// registry existed.
type Manifest struct {
	SchemaVersion int `json:"schema_version"`
	// Generator is the registered family ID (see package family).
	Generator string `json:"generator"`
	Device    string `json:"device"`
	// SwapCounts is the grid of provably optimal SWAP counts (swap-metric
	// families); normalized to sorted ascending, duplicates removed.
	SwapCounts       []int `json:"swap_counts,omitempty"`
	CircuitsPerCount int   `json:"circuits_per_count"`
	// Generator options, mirroring family.Options.
	TargetTwoQubitGates int   `json:"target_two_qubit_gates"`
	MaxTwoQubitGates    int   `json:"max_two_qubit_gates"`
	SingleQubitGates    int   `json:"single_qubit_gates"`
	PreferHighDegree    bool  `json:"prefer_high_degree"`
	Seed                int64 `json:"seed"`
	// Depths is the grid of provably optimal routed depths (depth-metric
	// families); normalized like SwapCounts.
	Depths []int `json:"depths,omitempty"`
}

// NewManifest fills in the schema and the default qubikos family around
// the caller's suite parameters and normalizes the result. swapCounts is
// the grid of provably optimal SWAP counts.
func NewManifest(device string, swapCounts []int, circuitsPerCount int, opts family.Options) Manifest {
	return NewFamilyManifest(GeneratorID, device, swapCounts, circuitsPerCount, opts)
}

// NewFamilyManifest builds the manifest for any registered family: grid
// holds the known-optimal metric values (SWAP counts or depths, per the
// family's metric). An unregistered familyID yields a manifest that
// fails Validate, keeping error handling in one place.
func NewFamilyManifest(familyID, device string, grid []int, circuitsPerCount int, opts family.Options) Manifest {
	m := Manifest{
		SchemaVersion:       SchemaVersion,
		Generator:           familyID,
		Device:              device,
		CircuitsPerCount:    circuitsPerCount,
		TargetTwoQubitGates: opts.TargetTwoQubitGates,
		MaxTwoQubitGates:    opts.MaxTwoQubitGates,
		SingleQubitGates:    opts.SingleQubitGates,
		PreferHighDegree:    opts.PreferHighDegree,
		Seed:                opts.Seed,
	}
	if fam, err := family.ByID(familyID); err == nil && fam.Metric == family.Depth {
		m.Depths = grid
	} else {
		m.SwapCounts = grid
	}
	m.normalize()
	return m
}

// Family resolves the manifest's generating family against the registry.
func (m Manifest) Family() (*family.Family, error) {
	return family.ByID(m.Generator)
}

// Metric returns the scored metric of the manifest's family, defaulting
// to swaps for unvalidated manifests so renderers never crash.
func (m Manifest) Metric() family.Metric {
	if fam, err := m.Family(); err == nil {
		return fam.Metric
	}
	return family.Swaps
}

// Grid returns the manifest's grid of known-optimal metric values.
func (m Manifest) Grid() []int {
	if len(m.Depths) > 0 {
		return m.Depths
	}
	return m.SwapCounts
}

// normalize sorts and deduplicates the grids so that manifests differing
// only in grid order or repetition hash identically.
func (m *Manifest) normalize() {
	m.SwapCounts = normalizeGrid(m.SwapCounts)
	m.Depths = normalizeGrid(m.Depths)
}

func normalizeGrid(grid []int) []int {
	if grid == nil {
		return nil
	}
	counts := append([]int(nil), grid...)
	sort.Ints(counts)
	out := counts[:0]
	for i, n := range counts {
		if i == 0 || n != counts[i-1] {
			out = append(out, n)
		}
	}
	return out
}

// Validate checks the manifest is well-formed: a known schema, a
// registered family, a known device, and exactly the grid the family's
// metric calls for.
func (m *Manifest) Validate() error {
	if m.SchemaVersion != SchemaVersion {
		return fmt.Errorf("suite: unsupported schema version %d (want %d)", m.SchemaVersion, SchemaVersion)
	}
	fam, err := m.Family()
	if err != nil {
		return fmt.Errorf("suite: %w", err)
	}
	if _, err := arch.ByName(m.Device); err != nil {
		return err
	}
	grid, name := m.SwapCounts, "swap_counts"
	if fam.Metric == family.Depth {
		grid, name = m.Depths, "depths"
		if len(m.SwapCounts) > 0 {
			return fmt.Errorf("suite: family %s scores depth; swap_counts must be empty", fam.ID)
		}
	} else if len(m.Depths) > 0 {
		return fmt.Errorf("suite: family %s scores swaps; depths must be empty", fam.ID)
	}
	if len(grid) == 0 {
		return fmt.Errorf("suite: empty %s grid", name)
	}
	for _, n := range grid {
		if n < fam.MinOptimal {
			return fmt.Errorf("suite: %s value %d below family %s minimum %d", name, n, fam.ID, fam.MinOptimal)
		}
	}
	if m.CircuitsPerCount < 1 {
		return fmt.Errorf("suite: circuits per count %d < 1", m.CircuitsPerCount)
	}
	if m.MaxTwoQubitGates > 0 && m.TargetTwoQubitGates > m.MaxTwoQubitGates {
		return fmt.Errorf("suite: target %d exceeds cap %d", m.TargetTwoQubitGates, m.MaxTwoQubitGates)
	}
	return nil
}

// canonicalJSON renders the normalized manifest in the canonical form the
// hash is computed over: the struct's fixed field order, no indentation.
func (m Manifest) canonicalJSON() []byte {
	m.normalize()
	b, err := json.Marshal(m)
	if err != nil {
		panic(err) // unreachable: Manifest contains no unmarshalable types
	}
	return b
}

// Hash returns the suite's content address: the lowercase hex SHA-256 of
// the canonical manifest JSON. Equal recipes hash equally across
// processes, machines and runs.
func (m Manifest) Hash() string {
	sum := sha256.Sum256(m.canonicalJSON())
	return hex.EncodeToString(sum[:])
}

// ValidHash reports whether s has the form Hash emits: exactly 64
// lowercase hex characters. Addresses arrive from URLs and request
// bodies, and the store builds paths from them, so nothing else may
// reach the disk layer.
func ValidHash(s string) bool {
	if len(s) != sha256.Size*2 {
		return false
	}
	for i := 0; i < len(s); i++ {
		if c := s[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// NumInstances is the size of the manifest's grid × circuits product.
func (m Manifest) NumInstances() int {
	return len(m.Grid()) * m.CircuitsPerCount
}

// InstanceSeed derives the deterministic per-instance seed for the i-th
// circuit at grid value n. The formula matches the harness's historical
// seed schedule so suites generated through the store agree with suites
// the harness generated inline.
func (m Manifest) InstanceSeed(n, i int) int64 {
	return m.Seed + int64(n)*1_000_000 + int64(i)
}

// InstanceBase is the file base name (no extension) of the i-th instance
// at optimal SWAP count n, e.g. "s005_i002". Depth-metric suites use a
// "d" prefix (see Manifest.InstanceRefs).
func InstanceBase(n, i int) string {
	return fmt.Sprintf("s%03d_i%03d", n, i)
}

// instanceBase names an instance per metric: the prefix distinguishes
// what the embedded number promises ("s" = optimal swaps, "d" = optimal
// depth).
func instanceBase(metric family.Metric, n, i int) string {
	if metric == family.Depth {
		return fmt.Sprintf("d%03d_i%03d", n, i)
	}
	return InstanceBase(n, i)
}

// Options converts the manifest's generator settings into the
// family.Options for the instance (n, i), where n is the grid value.
func (m Manifest) Options(n, i int) family.Options {
	return family.Options{
		Optimal:             n,
		TargetTwoQubitGates: m.TargetTwoQubitGates,
		MaxTwoQubitGates:    m.MaxTwoQubitGates,
		SingleQubitGates:    m.SingleQubitGates,
		PreferHighDegree:    m.PreferHighDegree,
		Seed:                m.InstanceSeed(n, i),
	}
}
