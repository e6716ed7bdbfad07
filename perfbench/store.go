package main

import (
	"archive/tar"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/arch"
	"repro/internal/family"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/suite"
)

// storeReplayN is the replay list's round count.
const storeReplayN = 20 * storeWriteEvery // 20 writes, so write_p50 has 10 beyond it

// Op classes of the serve-store mix. A round runs each read class once
// and, every storeWriteEvery-th round, one write, in an order drawn
// from the seed. Writes are kept rare because each one creates a dozen
// files: on a disk-backed filesystem mounted with discard, thousands of
// creates and deletes per run slow every later write for minutes.
const (
	classFetch      = "fetch"
	classRevalidate = "revalidate"
	classArchive    = "archive"
	classWrite      = "write"
)

var storeClasses = []string{classFetch, classRevalidate, classArchive, classWrite}

const (
	storeWriteEvery = 64
	storeWarmRounds = 32
)

var storeWorkload = workload{
	name: "serve-store",
	setup: func(ctx context.Context, dir string, seed int64) (session, error) {
		return setupStore(ctx, dir, seed)
	},
}

// residentManifest is the suite every read targets: Sycamore-54,
// optimal SWAP counts {5, 10}, two circuits each, 1500 gates (the
// paper's Sycamore size).
func residentManifest(seed int64) suite.Manifest {
	return harness.SuiteConfig{
		Device:              arch.GoogleSycamore54(),
		SwapCounts:          []int{5, 10},
		CircuitsPerCount:    2,
		TargetTwoQubitGates: 1500,
		Seed:                3000 + inputFamily(seed),
	}.Manifest()
}

// writeManifest is write number k's fresh Aspen-4 suite: never stored
// before, so the POST generates, commits and admits it.
func writeManifest(seed int64, k int64) suite.Manifest {
	return suite.NewManifest(arch.RigettiAspen4().Name(), []int{2}, 1, family.Options{
		TargetTwoQubitGates: 30,
		MaxTwoQubitGates:    30,
		PreferHighDegree:    true,
		Seed:                seed<<24 + k,
	})
}

type storeSession struct {
	dir   string
	seed  int64
	store *suite.Store
	srv   *httpServer
	st    *suite.Suite
	// sums is the resident suite's checksums.json, read from disk.
	sums map[string]string
	// urls are the resident suite's fetch URLs: the index, then each
	// instance's sidecar and qasm; etags their validators.
	urls  []string
	files []string // the checksummed file behind each URL ("" = index)
	etags []string
	// writes numbers the HTTP writes, so every POST is a new suite.
	writes  atomic.Int64
	replays int // replay passes so far; each gets a fresh store
	rng     *rand.Rand
	mu      sync.Mutex
	rounds  [][]string // seeded class order of each round
}

func setupStore(ctx context.Context, dir string, seed int64) (*storeSession, error) {
	store, err := suite.Open(filepath.Join(dir, "store"), suite.StoreOptions{})
	if err != nil {
		return nil, err
	}
	st, err := store.EnsureCtx(ctx, residentManifest(seed))
	if err != nil {
		return nil, err
	}
	s := &storeSession{dir: dir, seed: seed, store: store, st: st, rng: rand.New(rand.NewSource(inputFamily(seed)))}
	if s.sums, err = readChecksums(st.Dir); err != nil {
		return nil, err
	}
	s.urls = []string{"/v1/suites/" + st.Hash}
	s.files = []string{""}
	for _, ref := range st.Instances {
		p := "/v1/suites/" + st.Hash + "/instances/" + ref.Base
		s.urls = append(s.urls, p, p+"/qasm")
		s.files = append(s.files, ref.Base+".json", ref.Base+".qasm")
	}
	s.etags = make([]string, len(s.urls))
	if s.srv, err = startServer(store); err != nil {
		return nil, err
	}
	// Warm-up: one op per class; the fetch also collects the ETags the
	// revalidations send. Set-up then times suite generation and commit
	// with little else, so setup_s is this workload's guard on the
	// write path.
	if err := s.warm(ctx, storeClasses); err != nil {
		s.srv.close()
		return nil, err
	}
	return s, nil
}

// warm runs ops of the given classes, in order, untimed.
func (s *storeSession) warm(ctx context.Context, classes []string) error {
	for _, c := range classes {
		if _, err := s.httpOp(ctx, c); err != nil {
			return fmt.Errorf("warm-up %s: %w", c, err)
		}
	}
	return nil
}

func (s *storeSession) close() error { return s.srv.close() }

func readChecksums(suiteDir string) (map[string]string, error) {
	raw, err := os.ReadFile(filepath.Join(suiteDir, "checksums.json"))
	if err != nil {
		return nil, err
	}
	var sums map[string]string
	return sums, json.Unmarshal(raw, &sums)
}

// checkBody compares bytes against the resident suite's checksum of
// the named file.
func (s *storeSession) checkBody(name string, b []byte) error {
	want, ok := s.sums[name]
	if !ok {
		return fmt.Errorf("%s is not in checksums.json", name)
	}
	sum := sha256.Sum256(b)
	if got := hex.EncodeToString(sum[:]); got != want {
		return fmt.Errorf("%s: body hashes to %s, checksums.json says %s", name, got[:12], want[:12])
	}
	return nil
}

// checkIndex checks a served suite index against the stored suite.
func (s *storeSession) checkIndex(b []byte) error {
	var got suite.Suite
	if err := json.Unmarshal(b, &got); err != nil {
		return err
	}
	if got.Hash != s.st.Hash || len(got.Instances) != len(s.st.Instances) {
		return fmt.Errorf("index names suite %s with %d instances, want %s with %d",
			got.Hash, len(got.Instances), s.st.Hash, len(s.st.Instances))
	}
	for i, ref := range got.Instances {
		if ref != s.st.Instances[i] {
			return fmt.Errorf("index instance %d is %+v, want %+v", i, ref, s.st.Instances[i])
		}
	}
	return nil
}

// checkArchive checks that a suite tar holds exactly the checksummed
// instance files, each with matching bytes.
func (s *storeSession) checkArchive(r io.Reader) error {
	tr := tar.NewReader(r)
	seen := 0
	for {
		h, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		name, ok := strings.CutPrefix(h.Name, "instances/")
		if !ok {
			continue // manifest.json, checksums.json
		}
		b, err := io.ReadAll(tr)
		if err != nil {
			return err
		}
		if err := s.checkBody(name, b); err != nil {
			return fmt.Errorf("archive: %w", err)
		}
		seen++
	}
	if seen != len(s.sums) {
		return fmt.Errorf("archive holds %d instance files, checksums.json lists %d", seen, len(s.sums))
	}
	return nil
}

// httpOp runs one op of class c over HTTP and checks its answer. It
// returns the number of HTTP requests it sent.
func (s *storeSession) httpOp(ctx context.Context, c string) (int, error) {
	switch c {
	case classFetch:
		for i, u := range s.urls {
			code, b, hdr, err := s.srv.do(ctx, http.MethodGet, u, nil, nil)
			if err != nil {
				return i + 1, err
			}
			if code != http.StatusOK {
				return i + 1, fmt.Errorf("GET %s: %d", u, code)
			}
			if s.files[i] == "" {
				err = s.checkIndex(b)
			} else {
				err = s.checkBody(s.files[i], b)
			}
			if err != nil {
				return i + 1, err
			}
			s.mu.Lock()
			s.etags[i] = hdr.Get("ETag")
			s.mu.Unlock()
		}
		return len(s.urls), nil
	case classRevalidate:
		for i, u := range s.urls {
			s.mu.Lock()
			etag := s.etags[i]
			s.mu.Unlock()
			code, _, _, err := s.srv.do(ctx, http.MethodGet, u, nil, map[string]string{"If-None-Match": etag})
			if err != nil {
				return i + 1, err
			}
			if code != http.StatusNotModified {
				return i + 1, fmt.Errorf("revalidate %s: %d, want 304", u, code)
			}
		}
		return len(s.urls), nil
	case classArchive:
		code, b, _, err := s.srv.do(ctx, http.MethodGet, "/v1/suites/"+s.st.Hash+"/archive", nil, nil)
		if err != nil {
			return 1, err
		}
		if code != http.StatusOK {
			return 1, fmt.Errorf("archive: %d", code)
		}
		return 1, s.checkArchive(bytes.NewReader(b))
	case classWrite:
		m := writeManifest(s.seed, s.writes.Add(1))
		body, err := json.Marshal(m)
		if err != nil {
			return 0, err
		}
		code, b, hdr, err := s.srv.do(ctx, http.MethodPost, "/v1/suites", body, nil)
		if err != nil {
			return 1, err
		}
		if code != http.StatusOK {
			return 1, fmt.Errorf("write: %d %s", code, b)
		}
		var got suite.Suite
		if err := json.Unmarshal(b, &got); err != nil {
			return 1, err
		}
		if got.Hash != m.Hash() || hdr.Get("X-Cache") != "miss" || len(got.Instances) != m.NumInstances() {
			return 1, fmt.Errorf("write: got suite %s (X-Cache %q, %d instances), want fresh %s",
				got.Hash, hdr.Get("X-Cache"), len(got.Instances), m.Hash())
		}
		return 1, nil
	}
	return 0, fmt.Errorf("unknown op class %q", c)
}

// round returns round r's class order.
func (s *storeSession) round(r int) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.rounds) <= r {
		n := len(storeClasses) - 1 // the read classes
		if len(s.rounds)%storeWriteEvery == storeWriteEvery-1 {
			n++
		}
		order := make([]string, n)
		for i, j := range s.rng.Perm(n) {
			order[i] = storeClasses[j]
		}
		s.rounds = append(s.rounds, order)
	}
	return s.rounds[r]
}

// storeCounts is what the schedule predicts the server counts.
type storeCounts struct {
	writes, revalidations atomic.Int64
}

// httpPass runs rounds closed-loop over HTTP for d or up to round n,
// continuing from next. Each round is one op in rounds; its classes are
// also timed alone, in classes. want counts what the server should.
func (s *storeSession) httpPass(ctx context.Context, rounds, classes *opLog, want *storeCounts, next *atomic.Int64, d time.Duration, n int) {
	closedLoop(ctx, d, n, next, func(ctx context.Context, i int) {
		t0 := time.Now()
		reqs := 0
		var rerr error
		for _, c := range s.round(i) {
			t1 := time.Now()
			k, err := s.httpOp(ctx, c)
			classes.record(c, time.Since(t1), float64(k), err)
			reqs += k
			if err != nil && rerr == nil {
				rerr = err
			}
			if err == nil {
				switch c {
				case classWrite:
					want.writes.Add(1)
				case classRevalidate:
					want.revalidations.Add(int64(k))
				}
			}
		}
		rounds.record("", time.Since(t0), float64(reqs), rerr)
	})
}

// counterDeltas are the server's counts over one pass.
type counterDeltas struct {
	stats   suite.Stats
	metrics map[string]float64
}

func (s *storeSession) snapshot(ctx context.Context) (suite.Stats, map[string]float64, error) {
	st, err := s.srv.storeStats(ctx)
	if err != nil {
		return st, nil, err
	}
	m, err := s.srv.scrape(ctx)
	return st, m, err
}

func (s *storeSession) deltas(ctx context.Context, st0 suite.Stats, m0 map[string]float64) (*counterDeltas, map[string]float64, error) {
	st1, m1, err := s.snapshot(ctx)
	if err != nil {
		return nil, nil, err
	}
	d := &counterDeltas{metrics: map[string]float64{}}
	d.stats = suite.Stats{
		Hits:               st1.Hits - st0.Hits,
		Misses:             st1.Misses - st0.Misses,
		SuitesGenerated:    st1.SuitesGenerated - st0.SuitesGenerated,
		InstancesGenerated: st1.InstancesGenerated - st0.InstancesGenerated,
		FileReads:          st1.FileReads - st0.FileReads,
	}
	for k, v := range m1 {
		d.metrics[k] = v - m0[k]
	}
	return d, m1, nil
}

// checkCounts compares the server's counters with the schedule: one
// generated suite per write, one 304 per revalidation request.
func checkCounts(d *counterDeltas, want *storeCounts) error {
	w := want.writes.Load()
	perWrite := int64(writeManifest(0, 0).NumInstances())
	if d.stats.Misses != w || d.stats.SuitesGenerated != w || d.stats.InstancesGenerated != w*perWrite {
		return fmt.Errorf("store counted %d misses, %d suites, %d instances generated; schedule says %d, %d, %d",
			d.stats.Misses, d.stats.SuitesGenerated, d.stats.InstancesGenerated, w, w, w*perWrite)
	}
	if got, wantNM := d.metrics[`qubikos_http_conditional_total{result="not_modified"}`], float64(want.revalidations.Load()); got != wantNM {
		return fmt.Errorf("server counted %v 304s, schedule says %v", got, wantNM)
	}
	return nil
}

// measure first runs storeWarmRounds read rounds untimed, outside
// set-up, so the measured rounds start on a warm server and page cache,
// then sends rounds in serveSegment segments.
func (s *storeSession) measure(ctx context.Context, d time.Duration, m *speedometer) (*sample, error) {
	var reads []string
	for n := 0; n < storeWarmRounds; n++ {
		reads = append(reads, storeClasses[:len(storeClasses)-1]...)
	}
	if err := s.warm(ctx, reads); err != nil {
		return nil, err
	}
	st0, m0, err := s.snapshot(ctx)
	if err != nil {
		return nil, err
	}
	rounds, classes, want := &opLog{}, &opLog{}, &storeCounts{}
	var next atomic.Int64
	segs, err := m.segments(d, 3, func() error {
		s.httpPass(ctx, rounds, classes, want, &next, serveSegment, 0)
		return nil
	})
	if err != nil {
		return nil, err
	}
	delta, _, err := s.deltas(ctx, st0, m0)
	if err != nil {
		return nil, err
	}
	if err := checkCounts(delta, want); err != nil {
		rounds.record("", 0, 0, err)
	}
	smp := rounds.sample(0, "requests", 90, segs)
	smp.named = append(smp.named, namedValue{"req_per_s", smp.throughput(), "1/s",
		fmt.Sprintf("median of %d windows, %d rounds", len(smp.rates), smp.ops)})
	byClass := classes.sample(0, "", 50, segs).byClass
	for _, c := range storeClasses {
		v, note := percentileNote(byClass[c], 50)
		smp.named = append(smp.named, namedValue{c + "_p50_ms", v, "ms", note})
	}
	return smp, nil
}

// replay runs the replay list over HTTP (server counters, per-class
// latencies, server and outside-the-server time), then replays the same
// rounds in-process against a fresh store through the store calls the
// handlers make: ReadInstanceFile for a fetch, WriteArchive for an
// archive, EnsureCtx for a write. A revalidation never reaches the
// store, so it replays as nothing.
func (s *storeSession) replay(ctx context.Context) (*replayResult, error) {
	rr := newReplayResult(serveClients)
	// Every pass runs the HTTP part, so traced and untraced passes do
	// the same work before their timed in-process part.
	if err := s.httpLayers(ctx, rr); err != nil {
		return nil, err
	}
	s.replays++
	store, err := suite.Open(filepath.Join(s.dir, fmt.Sprintf("replay%d", s.replays)), suite.StoreOptions{})
	if err != nil {
		return nil, err
	}
	if _, err := store.EnsureCtx(ctx, residentManifest(s.seed)); err != nil {
		return nil, err
	}
	rr.wall = closedLoop(ctx, 0, storeReplayN, new(atomic.Int64), func(ctx context.Context, i int) {
		for _, c := range s.round(i) {
			rr.op(s.replayOp(ctx, store, c, i))
		}
	})
	rr.units = storeReplayN
	return rr, nil
}

func (s *storeSession) replayOp(ctx context.Context, store *suite.Store, c string, i int) error {
	switch c {
	case classFetch:
		for _, name := range s.files[1:] {
			sp, _ := obs.Begin(ctx, benchCat, "suite.read_file")
			b, err := store.ReadInstanceFile(s.st.Hash, name)
			sp.End()
			if err != nil {
				return err
			}
			sp, _ = obs.Begin(ctx, checkCat, "body")
			err = s.checkBody(name, b)
			sp.End()
			if err != nil {
				return err
			}
		}
	case classArchive:
		var buf bytes.Buffer
		sp, _ := obs.Begin(ctx, benchCat, "suite.archive")
		err := store.WriteArchive(s.st.Hash, &buf)
		sp.End()
		if err != nil {
			return err
		}
		sp, _ = obs.Begin(ctx, checkCat, "archive")
		defer sp.End()
		return s.checkArchive(&buf)
	case classWrite:
		m := writeManifest(s.seed, -int64(i)-1)
		sp, ectx := obs.Begin(ctx, benchCat, "suite.ensure_miss")
		st, err := store.EnsureCtx(ectx, m)
		sp.End()
		if err != nil {
			return err
		}
		if st.Cached {
			return fmt.Errorf("replay write %s was already stored", st.Hash[:12])
		}
	}
	return nil
}

// httpLayers runs the replay list over HTTP and reports the server's
// counter deltas, per-class p50s, and the server / outside split.
func (s *storeSession) httpLayers(ctx context.Context, rr *replayResult) error {
	st0, m0, err := s.snapshot(ctx)
	if err != nil {
		return err
	}
	rounds, classes, want := &opLog{}, &opLog{}, &storeCounts{}
	s.httpPass(ctx, rounds, classes, want, new(atomic.Int64), 0, storeReplayN)
	d, m1, err := s.deltas(ctx, st0, m0)
	if err != nil {
		return err
	}
	if err := checkCounts(d, want); err != nil {
		rr.op(err)
	}
	n := float64(storeReplayN)
	rr.set("store.hits", float64(d.stats.Hits)/n)
	rr.set("store.misses", float64(d.stats.Misses)/n)
	rr.set("store.suites_generated", float64(d.stats.SuitesGenerated)/n)
	rr.set("store.instances_generated", float64(d.stats.InstancesGenerated)/n)
	rr.set("store.file_reads", float64(d.stats.FileReads)/n)
	rr.set("cache.hit", d.metrics[`qubikos_suite_cache_total{result="hit"}`]/n)
	rr.set("cache.miss", d.metrics[`qubikos_suite_cache_total{result="miss"}`]/n)
	rr.set("conditional.not_modified", d.metrics[`qubikos_http_conditional_total{result="not_modified"}`]/n)
	rr.set("conditional.revalidated", d.metrics[`qubikos_http_conditional_total{result="revalidated"}`]/n)
	byClass := classes.sample(0, "", 50, nil).byClass
	for _, c := range storeClasses {
		v, _ := percentileNote(byClass[c], 50)
		rr.set(c+"_p50_ms", v)
	}
	rr.absorb(rounds)
	return splitHTTP(rr, "server.request_ms", rounds, rounds.units, m0, m1)
}

func storeLayers() []string {
	return []string{"suite.ensure_miss_ms", "store.generate_ms", "store.commit_ms", "suite.read_file_ms", "suite.archive_ms",
		"store.hits", "store.misses", "store.suites_generated", "store.instances_generated", "store.file_reads",
		"cache.hit", "cache.miss", "conditional.not_modified", "conditional.revalidated",
		"fetch_p50_ms", "revalidate_p50_ms", "archive_p50_ms", "write_p50_ms", "server.request_ms", "http.outside_ms"}
}
