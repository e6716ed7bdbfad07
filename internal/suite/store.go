package suite

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/arch"
	"repro/internal/family"
	"repro/internal/obs"
	"repro/internal/pool"
)

// ErrNotFound reports a content address with no completed suite on disk.
var ErrNotFound = errors.New("suite: not found in store")

// completeMarker is written last during generation; its presence is the
// store's commit point — a suite directory without it is ignored.
const completeMarker = "COMPLETE"

// StoreOptions tunes a Store.
type StoreOptions struct {
	// Workers bounds the generation worker pool; 0 means GOMAXPROCS.
	Workers int
	// Verify runs the structural verifier on every generated benchmark
	// before it is written. Defaults to off; the generator construction is
	// self-validating (it checks its own solution), so this is a belt for
	// suites that will be published.
	Verify bool
	// TmpMaxAge bounds how old a leftover staging directory or lease file
	// may be before Open's janitor removes it, and how old a lease must be
	// before a contending process may break it. Staging dirs and leases
	// persist only when a generating process died mid-write; an age gate
	// keeps the janitor from deleting a live concurrent generation's
	// workspace. 0 means DefaultTmpMaxAge; negative disables the janitor
	// (the lease gate then falls back to DefaultTmpMaxAge).
	TmpMaxAge time.Duration
	// Remotes configures the remote Blob tiers consulted, in order, when
	// the local disk misses: Ensure fetches from the first tier holding
	// the suite before generating locally, and Lookup before reporting
	// ErrNotFound. Everything fetched is checksum-verified against its
	// manifest hash before being committed locally.
	Remotes []Blob
	// Faults injects failures for robustness tests; nil in production.
	Faults *Faults
}

// DefaultTmpMaxAge is the janitor's age gate: comfortably longer than
// any real suite generation, so only genuinely orphaned staging dirs
// (from killed processes) are collected.
const DefaultTmpMaxAge = time.Hour

// Faults injects controlled failures into a Store so crash-recovery
// behaviour can be tested; every hook is nil in production use.
type Faults struct {
	// BeforeInstance, when non-nil, runs before each instance is
	// generated; a non-nil error fails that instance — a flaky blob
	// write.
	BeforeInstance func(base string) error
	// BeforeCommit, when non-nil, runs after a suite is fully staged but
	// before the atomic rename — the worst possible moment for a leader
	// to die. A non-nil error aborts the generation.
	BeforeCommit func(stagedDir string) error
	// KeepTmpOnFailure leaves the staging directory behind when
	// generation fails, as a killed process would — the litter Open's
	// janitor exists to collect.
	KeepTmpOnFailure bool
	// KeepLeaseOnFailure leaves the cross-process lease file behind when
	// the leader fails, as a killed process would; contending processes
	// must then break it via the staleness gate or the dead-pid probe.
	KeepLeaseOnFailure bool
}

// Stats is a snapshot of a Store's cache counters.
type Stats struct {
	// Hits counts Ensure calls satisfied from disk without generating
	// (followers coalesced onto an in-flight generation count as hits:
	// they never generate).
	Hits int64
	// Misses counts Ensure calls that had to generate locally.
	Misses int64
	// SuitesGenerated counts completed suite generations.
	SuitesGenerated int64
	// InstancesGenerated counts individual benchmark generations.
	InstancesGenerated int64
	// RemoteFetches counts suites materialized from a remote Blob tier
	// (checksum-verified and committed locally instead of generated).
	// Ensure calls satisfied remotely count here, not in Hits or Misses.
	RemoteFetches int64
	// FileReads counts instance-file reads served by ReadInstanceFile,
	// including those WriteArchive and WriteSuiteArchive make — the
	// serving layer's "a 304 (or a resident suite's archive) touches the
	// store zero times" assertions key off this counter.
	FileReads int64
	// RemoteRetries sums transient-failure retries across every remote
	// tier that exposes BlobMetrics (peer fetches that hit a connection
	// error or 5xx and tried again).
	RemoteRetries int64
	// RemoteFailures sums remote fetches that exhausted their retry
	// budget and fell through (to the next tier or local generation).
	RemoteFailures int64
}

// RemoteStat is one remote tier's fetch-health snapshot.
type RemoteStat struct {
	Name     string `json:"name"`
	Retries  int64  `json:"retries"`
	Failures int64  `json:"failures"`
}

// InstanceRef identifies one instance within a suite.
type InstanceRef struct {
	// Base is the file base name shared by the instance's three files.
	Base string `json:"base"`
	// Optimal is the provably optimal value of the suite's scored metric
	// (SWAP count for swap-metric suites, routed depth for depth-metric
	// ones).
	Optimal int `json:"optimal"`
	// OptSwaps mirrors Optimal for swap-metric suites under the wire
	// name API clients read before the family registry existed; depth
	// suites omit it.
	OptSwaps int `json:"opt_swaps,omitempty"`
	// Index is the instance's position within its grid value (0-based).
	Index int `json:"index"`
}

// Suite is a stored, complete benchmark suite.
type Suite struct {
	Hash     string   `json:"hash"`
	Manifest Manifest `json:"manifest"`
	// Metric is the scored metric of the suite's family ("swaps" or
	// "depth"); every instance's Optimal is expressed in it.
	Metric    family.Metric `json:"metric"`
	Dir       string        `json:"-"`
	Instances []InstanceRef `json:"instances"`
	// Cached reports whether the suite's bytes came from a cache — the
	// local disk or a remote tier — rather than being generated by this
	// call.
	Cached bool `json:"cached"`
	// Source records how this call obtained the suite (disk, generated,
	// remote). It is process-local accounting, deliberately off the wire:
	// replicas serve bit-identical suite indexes however each obtained
	// the bytes.
	Source Source `json:"-"`
}

// Store is a content-addressed suite store rooted at a directory. It is
// safe for concurrent use. Concurrent Ensure calls for the same manifest
// within one process are coalesced by a single-flight group; across
// processes sharing one root, an atomic claim/lease file elects exactly
// one generation leader per hash (see lease.go), and any rename race that
// slips through is resolved atomically (first writer wins, losers adopt
// the winner's bytes). Stores configured with remote Blob tiers fetch
// missing suites — checksum-verified — before generating locally.
type Store struct {
	disk      disk
	workers   int
	verify    bool
	faults    *Faults
	remotes   []Blob
	leaseGate time.Duration

	mu       sync.Mutex
	inflight map[string]*flight

	hits        atomic.Int64
	misses      atomic.Int64
	suiteGen    atomic.Int64
	instGen     atomic.Int64
	remoteFetch atomic.Int64
	fileReads   atomic.Int64
}

type flight struct {
	done  chan struct{}
	suite *Suite
	err   error
}

// Open creates (if needed) and opens a store rooted at dir. Staging
// directories and lease files orphaned by generations that died mid-write
// (a killed process never reaches its cleanup) are collected here, gated
// on opts.TmpMaxAge so live concurrent generations are never touched.
func Open(dir string, opts StoreOptions) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("suite: empty store directory")
	}
	d := disk{root: dir}
	for _, sub := range []string{d.versionDir(), d.tmpRoot()} {
		if err := os.MkdirAll(sub, 0o755); err != nil {
			return nil, err
		}
	}
	maxAge := opts.TmpMaxAge
	if maxAge == 0 {
		maxAge = DefaultTmpMaxAge
	}
	if maxAge > 0 {
		cleanStaleTmp(d.tmpRoot(), maxAge)
	}
	leaseGate := maxAge
	if leaseGate <= 0 {
		leaseGate = DefaultTmpMaxAge
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Store{
		disk:      d,
		workers:   workers,
		verify:    opts.Verify,
		faults:    opts.Faults,
		remotes:   opts.Remotes,
		leaseGate: leaseGate,
		inflight:  map[string]*flight{},
	}, nil
}

// cleanStaleTmp removes staging directories (and lease files) older than
// maxAge and returns how many it removed. Errors are deliberately
// swallowed: the janitor is best-effort hygiene, and a stat race with a
// concurrent process (or a permissions oddity) must never fail Open.
func cleanStaleTmp(tmpRoot string, maxAge time.Duration) int {
	entries, err := os.ReadDir(tmpRoot)
	if err != nil {
		return 0
	}
	cutoff := time.Now().Add(-maxAge)
	removed := 0
	for _, e := range entries {
		info, err := e.Info()
		if err != nil || info.ModTime().After(cutoff) {
			continue
		}
		if os.RemoveAll(filepath.Join(tmpRoot, e.Name())) == nil {
			removed++
		}
	}
	return removed
}

// Root returns the store's root directory.
func (s *Store) Root() string { return s.disk.root }

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats {
	st := Stats{
		Hits:               s.hits.Load(),
		Misses:             s.misses.Load(),
		SuitesGenerated:    s.suiteGen.Load(),
		InstancesGenerated: s.instGen.Load(),
		RemoteFetches:      s.remoteFetch.Load(),
		FileReads:          s.fileReads.Load(),
	}
	for _, r := range s.RemoteStats() {
		st.RemoteRetries += r.Retries
		st.RemoteFailures += r.Failures
	}
	return st
}

// RemoteStats snapshots each remote tier's fetch health, in tier order.
// Tiers that do not expose BlobMetrics report zeros.
func (s *Store) RemoteStats() []RemoteStat {
	if len(s.remotes) == 0 {
		return nil
	}
	out := make([]RemoteStat, 0, len(s.remotes))
	for _, b := range s.remotes {
		r := RemoteStat{Name: b.Name()}
		if m, ok := b.(BlobMetrics); ok {
			r.Retries = m.FetchRetries()
			r.Failures = m.FetchFailures()
		}
		out = append(out, r)
	}
	return out
}

// InstanceDir returns the directory holding a stored suite's instances.
func (s *Store) InstanceDir(hash string) string {
	return s.disk.instanceDir(hash)
}

// ReadInstanceFile returns one stored instance file's bytes, counted in
// Stats.FileReads. The serving layer and the archive writer funnel every
// instance-file read through here so "a conditional GET answered 304
// touched the store zero times" is assertable from stats alone.
func (s *Store) ReadInstanceFile(hash, name string) ([]byte, error) {
	if strings.ContainsAny(name, "/\\") || strings.Contains(name, "..") {
		return nil, fmt.Errorf("suite: bad instance file name %q", name)
	}
	s.fileReads.Add(1)
	return os.ReadFile(filepath.Join(s.disk.instanceDir(hash), name))
}

// Ensure returns the suite for the manifest, generating it on a miss.
// Repeated calls for the same manifest — concurrent or sequential — cause
// at most one generation; every later call is served from disk.
func (s *Store) Ensure(m Manifest) (*Suite, error) {
	return s.EnsureCtx(context.Background(), m)
}

// isCancellation reports whether an error is (or wraps) a context
// cancellation or deadline — a caller giving up, never a property of
// the suite being generated.
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// EnsureCtx is Ensure under a cancellation context. The context bounds
// this caller's wait and, when this caller leads the generation, the
// generation itself. Cancellation is personal, not contagious: a
// follower coalesced onto a leader whose own context died retries —
// re-probing the disk and, if needed, becoming the next leader under
// its own still-live context — instead of failing with someone else's
// cancellation. Each retry backs off briefly so a storm of doomed
// leaders cannot hot-spin the store. When remote Blob tiers are
// configured, a miss fetches from the first tier holding the suite
// before generating locally.
func (s *Store) EnsureCtx(ctx context.Context, m Manifest) (*Suite, error) {
	m.normalize()
	if err := m.Validate(); err != nil {
		return nil, err
	}
	hash := m.Hash()
	sp, ctx := obs.Begin(ctx, "store", "ensure")
	defer sp.End()
	sp.Arg("hash", hash[:12])
	st, err := s.materialize(ctx, hash, &m)
	if err == nil {
		sp.Arg("source", string(st.Source))
	}
	return st, err
}

// backoff sleeps an attempt-scaled interval (capped at 100ms), honouring
// cancellation.
func backoff(ctx context.Context, attempt int) error {
	d := time.Duration(1<<min(attempt, 6)) * time.Millisecond * 2
	if d > 100*time.Millisecond {
		d = 100 * time.Millisecond
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Lookup returns the stored suite at a content address, consulting remote
// tiers (if configured) on a local miss, or ErrNotFound. It never
// generates.
func (s *Store) Lookup(hash string) (*Suite, error) {
	return s.LookupCtx(context.Background(), hash)
}

// LookupCtx is Lookup under a cancellation context (which bounds any
// remote fetch a local miss triggers).
func (s *Store) LookupCtx(ctx context.Context, hash string) (*Suite, error) {
	if len(hash) != sha256.Size*2 {
		return nil, fmt.Errorf("suite: malformed hash %q", hash)
	}
	if len(s.remotes) == 0 {
		return s.disk.open(hash)
	}
	return s.materialize(ctx, hash, nil)
}

// LookupLocal returns the stored suite at a content address from the
// local disk only, never touching remote tiers. The archive endpoint
// serves through this, which is what keeps mutually peered replicas from
// recursing into each other on a fleet-wide miss.
func (s *Store) LookupLocal(hash string) (*Suite, error) {
	if len(hash) != sha256.Size*2 {
		return nil, fmt.Errorf("suite: malformed hash %q", hash)
	}
	return s.disk.open(hash)
}

// List returns the content addresses of every completed suite in the
// store, sorted.
func (s *Store) List() ([]string, error) {
	return s.disk.list()
}

// materialize resolves hash to a complete local suite: disk first, then —
// under the in-process single-flight group and the cross-process lease —
// remote tiers, then local generation when a manifest is available
// (m == nil is the Lookup path and reports ErrNotFound instead).
func (s *Store) materialize(ctx context.Context, hash string, m *Manifest) (*Suite, error) {
	ensure := m != nil
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if st, err := s.disk.open(hash); err == nil {
			if ensure {
				s.hits.Add(1)
			}
			return st, nil
		} else if !errors.Is(err, ErrNotFound) {
			return nil, err
		}

		s.mu.Lock()
		if f, ok := s.inflight[hash]; ok {
			s.mu.Unlock()
			wsp, _ := obs.Begin(ctx, "store", "inflight-wait")
			select {
			case <-f.done:
				wsp.End()
			case <-ctx.Done():
				wsp.End()
				return nil, ctx.Err()
			}
			if f.err != nil {
				if isCancellation(f.err) {
					if err := backoff(ctx, attempt); err != nil {
						return nil, err
					}
					continue
				}
				return nil, f.err
			}
			if ensure {
				s.hits.Add(1)
			}
			cp := *f.suite
			cp.Cached = true
			cp.Source = SourceDisk
			return &cp, nil
		}
		f := &flight{done: make(chan struct{})}
		s.inflight[hash] = f
		s.mu.Unlock()

		f.suite, f.err = s.fill(ctx, hash, m)

		s.mu.Lock()
		delete(s.inflight, hash)
		s.mu.Unlock()
		close(f.done)
		if f.err != nil {
			return nil, f.err
		}
		if ensure {
			switch f.suite.Source {
			case SourceGenerated:
				s.misses.Add(1)
			case SourceDisk:
				s.hits.Add(1)
				// SourceRemote is counted by Stats.RemoteFetches alone.
			}
		}
		return f.suite, nil
	}
}

// fill obtains the suite while holding the in-process flight: it claims
// the cross-process lease, then probes the disk, the remote tiers, and
// finally generates. A live lease held by another process means that
// process is already filling this hash — back off and re-probe until its
// COMPLETE marker lands or its lease becomes breakable.
func (s *Store) fill(ctx context.Context, hash string, m *Manifest) (*Suite, error) {
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if st, err := s.disk.open(hash); err == nil {
			return st, nil
		} else if !errors.Is(err, ErrNotFound) {
			return nil, err
		}
		held, err := s.acquireLease(hash)
		if err != nil {
			return nil, err
		}
		if held == nil {
			wsp, _ := obs.Begin(ctx, "store", "lease-wait")
			err := backoff(ctx, attempt)
			wsp.End()
			if err != nil {
				return nil, err
			}
			continue
		}
		return s.fillLeader(ctx, hash, m, held)
	}
}

// fillLeader runs with the cross-process lease held: re-probe the disk
// one final time (a previous leader may have committed between our probe
// and our claim), fetch from remote tiers, or generate.
func (s *Store) fillLeader(ctx context.Context, hash string, m *Manifest, held *lease) (st *Suite, retErr error) {
	defer func() {
		if retErr != nil && s.faults != nil && s.faults.KeepLeaseOnFailure {
			return // die like a killed process: leave the lease behind
		}
		held.release()
	}()
	if st, err := s.disk.open(hash); err == nil {
		return st, nil
	} else if !errors.Is(err, ErrNotFound) {
		return nil, err
	}
	var remoteErr error
	for _, blob := range s.remotes {
		st, err := s.fetchRemote(ctx, hash, blob)
		if err == nil {
			return st, nil
		}
		if isCancellation(err) {
			return nil, err
		}
		if !errors.Is(err, ErrNotFound) {
			remoteErr = err // a flaky tier: remember it, try the next
		}
	}
	if m == nil {
		if remoteErr != nil {
			return nil, remoteErr
		}
		return nil, fmt.Errorf("%w: %s", ErrNotFound, hash)
	}
	return s.generate(ctx, *m, hash, held)
}

// fetchRemote stages a suite from one remote tier, verifies the manifest
// hash and every checksum, and commits it locally. A concurrent process
// committing first wins the rename; this process adopts the winner's
// (bit-identical) bytes.
func (s *Store) fetchRemote(ctx context.Context, hash string, blob Blob) (*Suite, error) {
	sp, ctx := obs.Begin(ctx, "store", "remote-fetch")
	defer sp.End()
	sp.Arg("tier", blob.Name())
	tmp, err := s.disk.stage(hash[:12] + "-fetch")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp) // no-op once the commit rename has moved it
	if err := blob.Fetch(ctx, hash, tmp); err != nil {
		return nil, err
	}
	if err := verifyStaged(tmp, hash); err != nil {
		return nil, fmt.Errorf("suite: remote %s served corrupt suite %s: %w", blob.Name(), hash, err)
	}
	if err := os.WriteFile(filepath.Join(tmp, completeMarker), []byte(hash+"\n"), 0o644); err != nil {
		return nil, err
	}
	if err := s.disk.commit(tmp, hash); err != nil {
		if _, openErr := s.disk.open(hash); openErr != nil {
			return nil, fmt.Errorf("suite: commit %s: %w", hash, err)
		}
	}
	s.remoteFetch.Add(1)
	st, err := s.disk.open(hash)
	if err != nil {
		return nil, err
	}
	st.Source = SourceRemote
	return st, nil
}

// InstanceRefs enumerates the suite's instances in grid order.
func (m Manifest) InstanceRefs() []InstanceRef {
	metric := m.Metric()
	refs := make([]InstanceRef, 0, m.NumInstances())
	for _, n := range m.Grid() {
		for i := 0; i < m.CircuitsPerCount; i++ {
			ref := InstanceRef{Base: instanceBase(metric, n, i), Optimal: n, Index: i}
			if metric == family.Swaps {
				ref.OptSwaps = n
			}
			refs = append(refs, ref)
		}
	}
	return refs
}

// LoadInstance parses one stored instance (circuit + sidecar) and
// cross-checks the sidecar against the circuit and the family registry.
func (s *Store) LoadInstance(hash string, ref InstanceRef) (*family.Loaded, error) {
	return family.ReadInstance(s.InstanceDir(hash), ref.Base)
}

// LoadInstanceWithSolution additionally parses the stored witness
// transpilation, which family certificate checks may require.
func (s *Store) LoadInstanceWithSolution(hash string, ref InstanceRef) (*family.Loaded, error) {
	return family.ReadInstanceWithSolution(s.InstanceDir(hash), ref.Base)
}

// generate builds every instance of the manifest into a temp directory,
// writes the checksum index and COMPLETE marker, and atomically renames
// the directory into place. A concurrent process completing first wins
// the rename; this process then adopts the winner's (bit-identical)
// suite. Cancellation is checked between instances and before each
// commit step; a cancelled generation removes its staging directory
// (only a killed process leaves litter — that is the janitor's beat).
// The held lease is heartbeat-touched as instances land so a long
// generation never looks stale to contending processes.
func (s *Store) generate(ctx context.Context, m Manifest, hash string, held *lease) (_ *Suite, retErr error) {
	sp, ctx := obs.Begin(ctx, "store", "generate")
	defer sp.End()
	dev, err := arch.ByName(m.Device)
	if err != nil {
		return nil, err
	}
	fam, err := m.Family()
	if err != nil {
		return nil, err
	}
	tmp, err := s.disk.stage(hash[:12])
	if err != nil {
		return nil, err
	}
	defer func() {
		if retErr != nil && s.faults != nil && s.faults.KeepTmpOnFailure {
			return // die like a killed process: leave the staging dir
		}
		os.RemoveAll(tmp)
	}()
	instDir := filepath.Join(tmp, "instances")
	if err := os.MkdirAll(instDir, 0o755); err != nil {
		return nil, err
	}

	refs := m.InstanceRefs()
	sp.ArgInt("instances", int64(len(refs)))
	err = pool.ParallelForCtx(ctx, len(refs), s.workers, func(ji int) error {
		ref := refs[ji]
		if s.faults != nil && s.faults.BeforeInstance != nil {
			if err := s.faults.BeforeInstance(ref.Base); err != nil {
				return fmt.Errorf("suite: instance %s: %w", ref.Base, err)
			}
		}
		inst, err := fam.Generate(dev, m.Options(ref.Optimal, ref.Index))
		if err == nil && s.verify {
			err = inst.Verify()
		}
		if err == nil {
			_, err = family.WriteInstance(instDir, ref.Base, inst)
		}
		if err != nil {
			return fmt.Errorf("suite: instance %s: %w", ref.Base, err)
		}
		s.instGen.Add(1)
		held.touch()
		return nil
	})
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	sums, err := checksumDir(instDir)
	if err != nil {
		return nil, err
	}
	if err := writeJSON(filepath.Join(tmp, "checksums.json"), sums); err != nil {
		return nil, err
	}
	if err := writeJSON(filepath.Join(tmp, "manifest.json"), m); err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(tmp, completeMarker), []byte(hash+"\n"), 0o644); err != nil {
		return nil, err
	}
	if s.faults != nil && s.faults.BeforeCommit != nil {
		if err := s.faults.BeforeCommit(tmp); err != nil {
			return nil, err
		}
	}

	csp, _ := obs.Begin(ctx, "store", "commit")
	commitErr := s.disk.commit(tmp, hash)
	csp.End()
	if commitErr != nil {
		// Another process committed first: adopt its copy.
		if st, openErr := s.disk.open(hash); openErr == nil {
			return st, nil
		}
		return nil, fmt.Errorf("suite: commit %s: %w", hash, commitErr)
	}
	s.suiteGen.Add(1)
	return &Suite{
		Hash:      hash,
		Manifest:  m,
		Metric:    fam.Metric,
		Dir:       s.disk.suiteDir(hash),
		Instances: refs,
		Cached:    false,
		Source:    SourceGenerated,
	}, nil
}

// VerifyChecksums re-hashes every instance file of a stored suite against
// its checksum index, detecting on-disk corruption or tampering.
func (s *Store) VerifyChecksums(hash string) error {
	st, err := s.disk.open(hash)
	if err != nil {
		return err
	}
	if err := verifyChecksumIndex(st.Dir); err != nil {
		return fmt.Errorf("suite: %s: %w", hash, err)
	}
	return nil
}

// checksumDir hashes every regular file in dir, keyed by base name.
func checksumDir(dir string) (map[string]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	sums := make(map[string]string, len(entries))
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		sums[e.Name()] = fmt.Sprintf("%x", sha256.Sum256(b))
	}
	return sums, nil
}

// writeJSON writes v as indented JSON with a trailing newline.
func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
