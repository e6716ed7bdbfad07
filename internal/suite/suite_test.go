package suite

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/family"
)

// tinyManifest is a suite small enough to generate in milliseconds.
func tinyManifest() Manifest {
	return NewManifest("grid3x3", []int{1, 2}, 2, family.Options{
		TargetTwoQubitGates: 20,
		MaxTwoQubitGates:    30,
		PreferHighDegree:    true,
		Seed:                3,
	})
}

// tinyDepthManifest is the depth-family analogue.
func tinyDepthManifest() Manifest {
	return NewFamilyManifest(family.QuekoDepthID, "grid3x3", []int{3, 5}, 2, family.Options{
		TargetTwoQubitGates: 12,
		Seed:                3,
	})
}

func openStore(t *testing.T) *Store {
	t.Helper()
	s, err := Open(t.TempDir(), StoreOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// The content hash must be stable across runs and processes: a pinned
// constant catches accidental re-keying (field renames, map iteration,
// normalization changes), which would silently orphan every stored suite.
func TestManifestHashStability(t *testing.T) {
	const want = "11989a8b295e88283cf2d426378b21a9fd8437c67f4df8f8b2c20c9c67dde7e4"
	if got := tinyManifest().Hash(); got != want {
		t.Errorf("hash changed: got %s want %s\n(if the change is intentional, bump GeneratorID or SchemaVersion and update this constant)", got, want)
	}
}

func TestManifestHashNormalization(t *testing.T) {
	base := tinyManifest()
	reordered := base
	reordered.SwapCounts = []int{2, 1, 2}
	reordered.normalize()
	if reordered.Hash() != base.Hash() {
		t.Errorf("grid order/duplicates changed the hash: %s vs %s", reordered.Hash(), base.Hash())
	}
	changed := base
	changed.Seed++
	if changed.Hash() == base.Hash() {
		t.Error("different seed hashed identically")
	}
	changed = base
	changed.TargetTwoQubitGates++
	if changed.Hash() == base.Hash() {
		t.Error("different gate target hashed identically")
	}
}

func TestManifestValidate(t *testing.T) {
	bad := tinyManifest()
	bad.Device = "no-such-device"
	if err := bad.Validate(); err == nil {
		t.Error("unknown device accepted")
	}
	bad = tinyManifest()
	bad.CircuitsPerCount = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero circuits per count accepted")
	}
	bad = tinyManifest()
	bad.SchemaVersion = 99
	if err := bad.Validate(); err == nil {
		t.Error("future schema version accepted")
	}
}

// A stored suite must round-trip: every instance loads and cross-checks
// against its sidecar, and the stored bytes are the pinned ones.
func TestStoreRoundTrip(t *testing.T) {
	store := openStore(t)
	m := tinyManifest()
	st, err := store.EnsureCtx(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	if st.Cached {
		t.Error("first Ensure reported a cache hit")
	}
	if got, want := len(st.Instances), m.NumInstances(); got != want {
		t.Fatalf("suite has %d instances, want %d", got, want)
	}
	for _, ref := range st.Instances {
		li, err := store.LoadInstance(st.Hash, ref)
		if err != nil {
			t.Fatalf("load %s: %v", ref.Base, err)
		}
		if li.Meta.OptimalSwaps != ref.Optimal {
			t.Errorf("%s: sidecar optimum %d, ref says %d", ref.Base, li.Meta.OptimalSwaps, ref.Optimal)
		}
	}
	if err := store.VerifyChecksums(st.Hash); err != nil {
		t.Errorf("checksums: %v", err)
	}
	checkChecksumsDigest(t, st, "09e38e13441a9e67e78d217daf351c8d1886a78a67afe872a01a8f3860722a77")
}

// checkChecksumsDigest pins the SHA-256 of a stored suite's
// checksums.json. That index lists the SHA-256 of every instance file,
// so the pin holds every stored byte of the suite: a change to the
// generator or to the instance writer moves it.
func checkChecksumsDigest(t *testing.T, st *Suite, want string) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(st.Dir, "checksums.json"))
	if err != nil {
		t.Fatal(err)
	}
	if sum := sha256.Sum256(raw); hex.EncodeToString(sum[:]) != want {
		t.Errorf("checksums.json sha256 %x, want %s", sum, want)
	}
}

// A second Ensure — same process or a fresh store over the same root —
// must hit the cache, generate nothing, and return bit-identical files.
func TestCacheHitBitIdentical(t *testing.T) {
	store := openStore(t)
	m := tinyManifest()
	st1, err := store.EnsureCtx(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	gen := store.Stats().InstancesGenerated
	if gen != int64(m.NumInstances()) {
		t.Fatalf("first Ensure generated %d instances, want %d", gen, m.NumInstances())
	}

	snapshot := map[string][]byte{}
	instDir := store.InstanceDir(st1.Hash)
	entries, err := os.ReadDir(instDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(instDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		snapshot[e.Name()] = b
	}

	st2, err := store.EnsureCtx(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	if !st2.Cached {
		t.Error("second Ensure did not report a cache hit")
	}
	if st2.Hash != st1.Hash {
		t.Errorf("hash changed across Ensure calls: %s vs %s", st2.Hash, st1.Hash)
	}
	if got := store.Stats().InstancesGenerated; got != gen {
		t.Errorf("cache hit regenerated: %d instances generated, want still %d", got, gen)
	}

	// A fresh Store handle over the same root also hits.
	store2, err := Open(store.Root(), StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	st3, err := store2.EnsureCtx(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	if !st3.Cached || store2.Stats().InstancesGenerated != 0 {
		t.Error("fresh store handle over a populated root regenerated")
	}
	for name, want := range snapshot {
		got, err := os.ReadFile(filepath.Join(store2.InstanceDir(st3.Hash), name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: bytes changed across cache hits", name)
		}
	}
}

// Concurrent requests for the same cold manifest must coalesce onto one
// generation (single flight).
func TestConcurrentEnsureGeneratesOnce(t *testing.T) {
	store := openStore(t)
	m := tinyManifest()
	const callers = 8
	suites := make([]*Suite, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			suites[i], errs[i] = store.EnsureCtx(context.Background(), m)
		}(i)
	}
	wg.Wait()
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if suites[i].Hash != suites[0].Hash {
			t.Fatalf("caller %d got hash %s, caller 0 got %s", i, suites[i].Hash, suites[0].Hash)
		}
	}
	stats := store.Stats()
	if stats.SuitesGenerated != 1 {
		t.Errorf("%d suite generations for %d concurrent requests, want 1", stats.SuitesGenerated, callers)
	}
	if stats.InstancesGenerated != int64(m.NumInstances()) {
		t.Errorf("%d instance generations, want %d", stats.InstancesGenerated, m.NumInstances())
	}
}

func TestLookupNotFound(t *testing.T) {
	store := openStore(t)
	_, err := store.Lookup("0000000000000000000000000000000000000000000000000000000000000000")
	if !errors.Is(err, ErrNotFound) {
		t.Errorf("missing suite: got %v, want ErrNotFound", err)
	}
	if _, err := store.Lookup("short"); err == nil {
		t.Error("malformed hash accepted")
	}
}

// TestStoreRejectsMalformedAddress: every Store method that takes an
// address from a caller answers a malformed one with ErrNotFound before
// building a path from it — no slice panic on a short address, and no
// "../" walk out of the store root.
func TestStoreRejectsMalformedAddress(t *testing.T) {
	store := openStore(t)
	hex61 := strings.Repeat("0123456789abcdef", 4)[:61]
	ref := InstanceRef{Base: "x"}
	calls := map[string]func(hash string) error{
		"Lookup": func(h string) error { _, err := store.Lookup(h); return err },
		"ReadInstanceFile": func(h string) error {
			_, err := store.ReadInstanceFile(h, "hostname")
			return err
		},
		"LoadInstance": func(h string) error { _, err := store.LoadInstance(h, ref); return err },
		"LoadInstanceWithSolution": func(h string) error {
			_, err := store.LoadInstanceWithSolution(h, ref)
			return err
		},
		"VerifyChecksums": store.VerifyChecksums,
		"WriteArchive":    func(h string) error { return store.WriteArchive(h, io.Discard) },
	}
	for _, hash := range []string{"a", "../" + hex61, strings.Repeat("AB", 32)} {
		for name, call := range calls {
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("%s(%q) panicked: %v", name, hash, r)
					}
				}()
				if err := call(hash); !errors.Is(err, ErrNotFound) {
					t.Errorf("%s(%q) = %v, want ErrNotFound", name, hash, err)
				}
			}()
		}
	}
}

func TestListAndVerifyChecksums(t *testing.T) {
	store := openStore(t)
	st, err := store.EnsureCtx(context.Background(), tinyManifest())
	if err != nil {
		t.Fatal(err)
	}
	hashes, err := store.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(hashes) != 1 || hashes[0] != st.Hash {
		t.Fatalf("List = %v, want [%s]", hashes, st.Hash)
	}
	// Corrupt one instance file; VerifyChecksums must notice.
	victim := filepath.Join(store.InstanceDir(st.Hash), st.Instances[0].Base+".qasm")
	if err := os.WriteFile(victim, []byte("OPENQASM 2.0;\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := store.VerifyChecksums(st.Hash); err == nil {
		t.Error("checksum verification passed on corrupted file")
	}
}

func TestEvalLogResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "evals", "k.jsonl")
	log, err := OpenEvalLog(path)
	if err != nil {
		t.Fatal(err)
	}
	rows := []Row{
		{Suite: "h", Instance: "a", Tool: "t1", Optimal: 1, Swaps: 2, Ratio: 2},
		{Suite: "h", Instance: "b", Tool: "t1", Optimal: 1, Swaps: 1, Ratio: 1},
		{Suite: "h", Instance: "a", Tool: "t2", Optimal: 1, Error: "tool failed to route"},
	}
	for _, r := range rows {
		if err := log.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if !log.Done("h", "t1", "a") || log.Done("h", "t2", "b") {
		t.Error("Done bookkeeping wrong before reopen")
	}
	// Same tool+instance under a different suite hash is a distinct triple.
	if log.Done("other-suite", "t1", "a") {
		t.Error("Done conflated rows across suite hashes")
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	log2, err := OpenEvalLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	if got := log2.Rows(); len(got) != len(rows) {
		t.Fatalf("reopened log has %d rows, want %d", len(got), len(rows))
	} else {
		for i := range rows {
			if got[i] != rows[i] {
				t.Errorf("row %d round-trip: got %+v want %+v", i, got[i], rows[i])
			}
		}
	}
	// Duplicate appends are dropped; new pairs append.
	if err := log2.Append(rows[0]); err != nil {
		t.Fatal(err)
	}
	if err := log2.Append(Row{Suite: "h", Instance: "b", Tool: "t2", Optimal: 1, Swaps: 3, Ratio: 3}); err != nil {
		t.Fatal(err)
	}
	// A mirror log spanning suites must keep rows whose tool+instance
	// collide but whose suite differs.
	if err := log2.Append(Row{Suite: "h2", Instance: "a", Tool: "t1", Optimal: 1, Swaps: 1, Ratio: 1}); err != nil {
		t.Fatal(err)
	}
	if got := len(log2.Rows()); got != len(rows)+2 {
		t.Errorf("after dedup+appends: %d rows, want %d", got, len(rows)+2)
	}
}

// A run killed mid-write leaves a torn final line; reopening must
// recover every complete row, drop the torn tail, and stay writable —
// mid-file corruption must still be an error.
func TestEvalLogTornTailRecovers(t *testing.T) {
	path := filepath.Join(t.TempDir(), "torn.jsonl")
	log, err := OpenEvalLog(path)
	if err != nil {
		t.Fatal(err)
	}
	good := Row{Suite: "h", Instance: "a", Tool: "t1", Optimal: 1, Swaps: 2, Ratio: 2}
	if err := log.Append(good); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"suite":"h","instance":"b","to`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	log2, err := OpenEvalLog(path)
	if err != nil {
		t.Fatalf("torn tail broke reopen: %v", err)
	}
	if got := log2.Rows(); len(got) != 1 || got[0] != good {
		t.Fatalf("recovered rows = %+v, want just %+v", got, good)
	}
	// The truncated pair re-runs: appending it again must stick.
	torn := Row{Suite: "h", Instance: "b", Tool: "t1", Optimal: 1, Swaps: 1, Ratio: 1}
	if err := log2.Append(torn); err != nil {
		t.Fatal(err)
	}
	if err := log2.Close(); err != nil {
		t.Fatal(err)
	}
	log3, err := OpenEvalLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer log3.Close()
	if got := log3.Rows(); len(got) != 2 || got[1] != torn {
		t.Fatalf("after recovery+append: rows = %+v", got)
	}

	// Corruption followed by a valid line is NOT a torn tail: hard error.
	bad := filepath.Join(t.TempDir(), "mid.jsonl")
	if err := os.WriteFile(bad, []byte("{broken\n{\"suite\":\"h\",\"instance\":\"c\",\"tool\":\"t\",\"opt_swaps\":1,\"swaps\":1,\"ratio\":1,\"elapsed_ms\":0}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenEvalLog(bad); err == nil {
		t.Error("mid-file corruption accepted")
	}
}

// The depth manifest hash is pinned like the qubikos one: re-keying
// would orphan every stored depth suite.
func TestDepthManifestHashStability(t *testing.T) {
	m := tinyDepthManifest()
	if m.Metric() != family.Depth {
		t.Fatalf("metric = %s, want depth", m.Metric())
	}
	const want = "7b483083288d7fd4fcf9df47c404e297abf7c3d48ae4710a9905aa78d28394d3"
	if got := m.Hash(); got != want {
		t.Errorf("depth manifest hash changed: got %s want %s", got, want)
	}
}

// Manifests must pair the grid with the family's metric: a depth family
// with swap_counts (or vice versa) is rejected, not silently re-keyed.
func TestManifestGridMatchesFamilyMetric(t *testing.T) {
	bad := tinyDepthManifest()
	bad.SwapCounts = []int{1}
	if err := bad.Validate(); err == nil {
		t.Error("depth manifest with swap_counts accepted")
	}
	bad = tinyManifest()
	bad.Depths = []int{3}
	if err := bad.Validate(); err == nil {
		t.Error("swap manifest with depths accepted")
	}
	bad = tinyManifest()
	bad.Generator = "no-such-family/9"
	if err := bad.Validate(); err == nil {
		t.Error("unregistered family accepted")
	}
	bad = tinyDepthManifest()
	bad.Depths = []int{0}
	if err := bad.Validate(); err == nil {
		t.Error("depth 0 accepted (family minimum is 1)")
	}
}

// A depth-family suite must round-trip through the store: generation,
// load, per-instance certificate, checksums, and a pure cache hit on the
// second Ensure.
func TestDepthSuiteStoreRoundTrip(t *testing.T) {
	store := openStore(t)
	m := tinyDepthManifest()
	st, err := store.EnsureCtx(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	if st.Metric != family.Depth {
		t.Errorf("suite metric = %s, want depth", st.Metric)
	}
	if got, want := len(st.Instances), m.NumInstances(); got != want {
		t.Fatalf("suite has %d instances, want %d", got, want)
	}
	for _, ref := range st.Instances {
		if ref.Base[0] != 'd' {
			t.Errorf("depth instance base %q does not carry the d prefix", ref.Base)
		}
		li, err := store.LoadInstanceWithSolution(st.Hash, ref)
		if err != nil {
			t.Fatalf("load %s: %v", ref.Base, err)
		}
		if li.Meta.OptimalDepth != ref.Optimal || li.Meta.Optimal() != ref.Optimal {
			t.Errorf("%s: sidecar depth %d, ref says %d", ref.Base, li.Meta.OptimalDepth, ref.Optimal)
		}
		if li.Meta.OptimalSwaps != 0 {
			t.Errorf("%s: depth instance claims %d optimal swaps", ref.Base, li.Meta.OptimalSwaps)
		}
		if err := li.Certify(); err != nil {
			t.Errorf("%s: depth certificate: %v", ref.Base, err)
		}
	}
	if err := store.VerifyChecksums(st.Hash); err != nil {
		t.Errorf("checksums: %v", err)
	}
	checkChecksumsDigest(t, st, "b80a3641001cfa0172df5afe303fba2f087c145cffaf9e4626b01adec99614f3")

	st2, err := store.EnsureCtx(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	if !st2.Cached || st2.Hash != st.Hash {
		t.Errorf("second Ensure: cached=%v hash=%s, want cache hit on %s", st2.Cached, st2.Hash, st.Hash)
	}
}

// Swap- and depth-family manifests with otherwise identical parameters
// must occupy distinct content addresses.
func TestFamiliesHashDistinctly(t *testing.T) {
	swap := NewManifest("grid3x3", []int{3, 5}, 2, family.Options{TargetTwoQubitGates: 12, Seed: 3})
	depth := tinyDepthManifest()
	if swap.Hash() == depth.Hash() {
		t.Error("swap and depth manifests share a content address")
	}
}
