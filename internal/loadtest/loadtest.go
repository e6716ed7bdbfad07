// Package loadtest drives a qubikos-serve fleet with a deterministic mix
// of concurrent requests — cache hits, generation misses, conditional
// GETs, archive pulls, evaluations, portfolio route races, and
// deliberately abandoned streams — and reports what came back. It is the engine behind both the
// qubikos-loadtest command and the in-process soak tests: the same
// request mix that hammers a production replica runs under the race
// detector in CI.
//
// The mix is deterministic: a seeded shuffle fixes which request index
// gets which class and which target replica, so a failing run can be
// replayed exactly with the same seed.
package loadtest

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Request classes. Conditional classes replay the strong ETag a previous
// response carried and expect 304; abandon issues a GET and walks away
// mid-body, which must never fail the request it abandoned nor any other.
const (
	ClassEnsure    = "ensure"     // POST /v1/suites (hit after first)
	ClassIndex     = "index"      // GET suite index
	ClassCondIndex = "cond_index" // conditional GET suite index
	ClassSidecar   = "sidecar"    // GET instance sidecar JSON
	ClassQasm      = "qasm"       // GET instance circuit
	ClassCondQasm  = "cond_qasm"  // conditional GET instance circuit
	ClassArchive   = "archive"    // GET suite archive tar
	ClassEval      = "eval"       // POST eval, stream JSONL
	ClassRoute     = "route"      // POST /v1/route portfolio race
	ClassAbandon   = "abandon"    // GET circuit, cancel mid-stream
	ClassHealth    = "health"     // GET /healthz
)

// Config tunes one load-test run.
type Config struct {
	// Targets are the replicas' base URLs; requests round-robin over them
	// deterministically.
	Targets []string
	// Manifests are the suite manifests (raw JSON bodies) the run
	// exercises. Each is ensured once up front so every worker knows its
	// hash and instance bases.
	Manifests []string
	// Total is the number of mixed requests to issue after warm-up.
	Total int
	// Concurrency is the worker count (default 16).
	Concurrency int
	// Seed fixes the request mix (default 1).
	Seed int64
	// Tools, when non-empty, enables the eval class with this tools
	// parameter; empty disables evals (they dominate runtime). Route
	// requests reuse it as the portfolio tool list.
	Tools string
	// EvalTrials is the trials parameter for eval requests (default 1).
	EvalTrials int
	// Route enables the POST /v1/route class: each request races the
	// configured tools over one stored instance under a deadline.
	Route bool
	// RouteDeadlineMS is the per-race deadline for route requests
	// (default 2000).
	RouteDeadlineMS int
	// RouteThreshold is the early-win ratio for route requests (0 = race
	// to completion).
	RouteThreshold float64
}

// maxFailures bounds the recorded failure detail strings; the count is
// always exact.
const maxFailures = 20

// Report is the outcome of a run.
type Report struct {
	Requests    int            `json:"requests"`
	ByClass     map[string]int `json:"by_class"`
	ByStatus    map[string]int `json:"by_status"`
	NotModified int            `json:"not_modified"`
	Abandoned   int            `json:"abandoned"`
	// FailureCount counts requests that errored at transport level
	// (outside the abandon class, where that is the point) or answered
	// 5xx. Failures holds the first few, one line each.
	FailureCount int      `json:"failure_count"`
	Failures     []string `json:"failures,omitempty"`
	// Suites maps each exercised manifest's suite hash to its instance
	// count, as learned from the warm-up ensure.
	Suites map[string]int `json:"suites"`
	// Elapsed is the wall-clock duration of the mixed phase.
	Elapsed time.Duration `json:"elapsed_ns"`
	// Latency summarizes the client-observed latency distribution per
	// request class: from issuing the request to draining (or, for the
	// abandon class, walking away from) the body. Failed requests count
	// too — a 5xx that takes 30s should show up in the tail, not vanish.
	Latency map[string]ClassLatency `json:"latency"`
}

// ClassLatency is one request class's client-side latency summary.
// Percentiles use the nearest-rank method over all recorded samples.
type ClassLatency struct {
	Count int           `json:"count"`
	P50   time.Duration `json:"p50_ns"`
	P95   time.Duration `json:"p95_ns"`
	P99   time.Duration `json:"p99_ns"`
	Max   time.Duration `json:"max_ns"`
}

// suiteInfo is what the warm-up learns about one manifest.
type suiteInfo struct {
	hash  string
	bases []string
}

type runner struct {
	cfg    Config
	client *http.Client

	mu          sync.Mutex
	byClass     map[string]int
	byStatus    map[string]int
	latencies   map[string][]time.Duration
	failures    []string
	failCount   int
	notModified int
	abandoned   int
}

// Run executes the configured mix and returns its report. The returned
// error covers harness-level problems (no targets, warm-up failure,
// context cancellation) — individual request failures are data, reported
// in Report.FailureCount.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	if len(cfg.Targets) == 0 {
		return nil, errors.New("loadtest: no targets")
	}
	if len(cfg.Manifests) == 0 {
		return nil, errors.New("loadtest: no manifests")
	}
	if cfg.Total <= 0 {
		cfg.Total = 1000
	}
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 16
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.EvalTrials <= 0 {
		cfg.EvalTrials = 1
	}
	if cfg.RouteDeadlineMS <= 0 {
		cfg.RouteDeadlineMS = 2000
	}
	r := &runner{
		cfg:       cfg,
		client:    &http.Client{Timeout: 2 * time.Minute},
		byClass:   map[string]int{},
		byStatus:  map[string]int{},
		latencies: map[string][]time.Duration{},
	}

	// Warm-up: ensure every manifest once (round-robining targets) so the
	// mixed phase knows each suite's hash and bases. These requests are
	// not counted in the report; a warm-up failure fails the run.
	infos := make([]suiteInfo, len(cfg.Manifests))
	for i, m := range cfg.Manifests {
		info, err := r.ensure(ctx, cfg.Targets[i%len(cfg.Targets)], m)
		if err != nil {
			return nil, fmt.Errorf("loadtest: warm-up ensure of manifest %d: %w", i, err)
		}
		infos[i] = info
	}

	// Deterministic schedule: class and target per request index.
	classes := []string{
		ClassIndex, ClassIndex, ClassQasm, ClassQasm, ClassQasm,
		ClassCondIndex, ClassCondIndex, ClassCondQasm, ClassCondQasm,
		ClassSidecar, ClassEnsure, ClassArchive, ClassAbandon, ClassHealth,
	}
	if cfg.Tools != "" {
		classes = append(classes, ClassEval)
	}
	if cfg.Route {
		classes = append(classes, ClassRoute)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	schedule := make([]string, cfg.Total)
	for i := range schedule {
		schedule[i] = classes[rng.Intn(len(classes))]
	}

	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < cfg.Concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= cfg.Total || ctx.Err() != nil {
					return
				}
				class := schedule[i]
				target := cfg.Targets[i%len(cfg.Targets)]
				info := infos[i%len(infos)]
				manifest := cfg.Manifests[i%len(infos)]
				r.one(ctx, class, target, info, manifest, i)
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	rep := &Report{
		Requests:     cfg.Total,
		ByClass:      r.byClass,
		ByStatus:     r.byStatus,
		NotModified:  r.notModified,
		Abandoned:    r.abandoned,
		FailureCount: r.failCount,
		Failures:     r.failures,
		Suites:       map[string]int{},
		Elapsed:      time.Since(start),
		Latency:      summarizeLatencies(r.latencies),
	}
	for _, info := range infos {
		rep.Suites[info.hash] = len(info.bases)
	}
	return rep, nil
}

// ensure POSTs one manifest and parses the suite index out of the
// response.
func (r *runner) ensure(ctx context.Context, target, manifest string) (suiteInfo, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, target+"/v1/suites", strings.NewReader(manifest))
	if err != nil {
		return suiteInfo{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := r.client.Do(req)
	if err != nil {
		return suiteInfo{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return suiteInfo{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return suiteInfo{}, fmt.Errorf("status %d: %s", resp.StatusCode, firstLine(body))
	}
	var st struct {
		Hash      string `json:"hash"`
		Instances []struct {
			Base string `json:"base"`
		} `json:"instances"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		return suiteInfo{}, err
	}
	if st.Hash == "" || len(st.Instances) == 0 {
		return suiteInfo{}, fmt.Errorf("ensure response carries no suite index")
	}
	info := suiteInfo{hash: st.Hash}
	for _, inst := range st.Instances {
		info.bases = append(info.bases, inst.Base)
	}
	return info, nil
}

// one issues a single classed request and records its outcome and
// client-observed latency (request issued to body drained).
func (r *runner) one(ctx context.Context, class, target string, info suiteInfo, manifest string, i int) {
	base := info.bases[i%len(info.bases)]
	start := time.Now()
	var (
		method = http.MethodGet
		url    string
		body   io.Reader
		etag   string
	)
	switch class {
	case ClassEnsure:
		method, url, body = http.MethodPost, target+"/v1/suites", strings.NewReader(manifest)
	case ClassIndex:
		url = target + "/v1/suites/" + info.hash
	case ClassCondIndex:
		url = target + "/v1/suites/" + info.hash
		etag = `"` + info.hash + `"`
	case ClassSidecar:
		url = target + "/v1/suites/" + info.hash + "/instances/" + base
	case ClassQasm:
		url = target + "/v1/suites/" + info.hash + "/instances/" + base + "/qasm"
	case ClassCondQasm:
		url = target + "/v1/suites/" + info.hash + "/instances/" + base + "/qasm"
		etag = `"` + info.hash + "/" + base + `.qasm"`
	case ClassArchive:
		url = target + "/v1/suites/" + info.hash + "/archive"
	case ClassEval:
		method = http.MethodPost
		url = fmt.Sprintf("%s/v1/suites/%s/eval?tools=%s&trials=%d&seed=1", target, info.hash, r.cfg.Tools, r.cfg.EvalTrials)
	case ClassRoute:
		method = http.MethodPost
		url = target + "/v1/route"
		rb, _ := json.Marshal(map[string]any{
			"suite":       info.hash,
			"instance":    base,
			"tools":       r.cfg.Tools,
			"trials":      r.cfg.EvalTrials,
			"deadline_ms": r.cfg.RouteDeadlineMS,
			"threshold":   r.cfg.RouteThreshold,
			"seed":        1,
		})
		body = strings.NewReader(string(rb))
	case ClassAbandon:
		r.abandon(ctx, target+"/v1/suites/"+info.hash+"/instances/"+base+"/qasm")
		return
	case ClassHealth:
		url = target + "/healthz"
	}

	req, err := http.NewRequestWithContext(ctx, method, url, body)
	if err != nil {
		r.record(class, 0, time.Since(start), fmt.Sprintf("%s: build request: %v", class, err))
		return
	}
	if etag != "" {
		req.Header.Set("If-None-Match", etag)
	}
	resp, err := r.client.Do(req)
	if err != nil {
		if ctx.Err() == nil {
			r.record(class, 0, time.Since(start), fmt.Sprintf("%s %s: %v", class, url, err))
		}
		return
	}
	_, readErr := io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	detail := ""
	switch {
	case readErr != nil && ctx.Err() == nil:
		detail = fmt.Sprintf("%s %s: read body: %v", class, url, readErr)
	case resp.StatusCode >= 500:
		detail = fmt.Sprintf("%s %s: status %d", class, url, resp.StatusCode)
	case etag != "" && resp.StatusCode != http.StatusNotModified:
		// A path-derived validator for an existing suite must revalidate.
		detail = fmt.Sprintf("%s %s: conditional GET answered %d, want 304", class, url, resp.StatusCode)
	}
	r.record(class, resp.StatusCode, time.Since(start), detail)
}

// abandon issues a GET and cancels it as soon as the headers land,
// simulating a client that walks away mid-stream.
func (r *runner) abandon(ctx context.Context, url string) {
	start := time.Now()
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	req, err := http.NewRequestWithContext(cctx, http.MethodGet, url, nil)
	if err != nil {
		r.record(ClassAbandon, 0, time.Since(start), fmt.Sprintf("abandon: build request: %v", err))
		return
	}
	resp, err := r.client.Do(req)
	if err != nil {
		// Cancellation racing the response is the expected shape here.
		r.recordAbandon(0, time.Since(start))
		return
	}
	var one [1]byte
	resp.Body.Read(one[:])
	cancel()
	resp.Body.Close()
	r.recordAbandon(resp.StatusCode, time.Since(start))
}

func (r *runner) record(class string, status int, elapsed time.Duration, failure string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.byClass[class]++
	r.byStatus[statusKey(status)]++
	r.latencies[class] = append(r.latencies[class], elapsed)
	if status == http.StatusNotModified {
		r.notModified++
	}
	if failure != "" {
		r.failCount++
		if len(r.failures) < maxFailures {
			r.failures = append(r.failures, failure)
		}
	}
}

func (r *runner) recordAbandon(status int, elapsed time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.byClass[ClassAbandon]++
	r.byStatus[statusKey(status)]++
	r.latencies[ClassAbandon] = append(r.latencies[ClassAbandon], elapsed)
	r.abandoned++
	if status >= 500 {
		r.failCount++
		if len(r.failures) < maxFailures {
			r.failures = append(r.failures, fmt.Sprintf("abandon: status %d", status))
		}
	}
}

// summarizeLatencies collapses raw per-class samples into
// nearest-rank percentiles.
func summarizeLatencies(raw map[string][]time.Duration) map[string]ClassLatency {
	out := make(map[string]ClassLatency, len(raw))
	for class, samples := range raw {
		if len(samples) == 0 {
			continue
		}
		sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
		out[class] = ClassLatency{
			Count: len(samples),
			P50:   percentile(samples, 50),
			P95:   percentile(samples, 95),
			P99:   percentile(samples, 99),
			Max:   samples[len(samples)-1],
		}
	}
	return out
}

// percentile returns the nearest-rank p-th percentile of a sorted,
// non-empty sample slice: the smallest sample such that at least p% of
// the samples are <= it.
func percentile(sorted []time.Duration, p float64) time.Duration {
	idx := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

func statusKey(code int) string {
	if code == 0 {
		return "transport_error"
	}
	return fmt.Sprintf("%d", code)
}

func firstLine(b []byte) string {
	s := strings.TrimSpace(string(b))
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i]
	}
	if len(s) > 200 {
		s = s[:200]
	}
	return s
}

// StoreStats mirrors the suite store counters exposed by /healthz.
type StoreStats struct {
	Hits               int64
	Misses             int64
	SuitesGenerated    int64
	InstancesGenerated int64
	FileReads          int64
}

// FetchStats reads one replica's suite-store counters from its /healthz
// endpoint — the handle the load-test assertions ("exactly one generation
// per hash across the fleet", "a 304 costs zero store reads") hang off.
func FetchStats(ctx context.Context, target string) (StoreStats, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, strings.TrimRight(target, "/")+"/healthz", nil)
	if err != nil {
		return StoreStats{}, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return StoreStats{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return StoreStats{}, fmt.Errorf("loadtest: %s/healthz: status %d", target, resp.StatusCode)
	}
	var out struct {
		Stats StoreStats `json:"stats"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return StoreStats{}, err
	}
	return out.Stats, nil
}

// SortedClasses returns a report's class names in stable order, for
// deterministic printing.
func (rep *Report) SortedClasses() []string {
	out := make([]string, 0, len(rep.ByClass))
	for c := range rep.ByClass {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}
