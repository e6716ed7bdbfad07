// Package server exposes the content-addressed suite store over HTTP —
// the qubikos-serve service. Clients POST a manifest to obtain a suite
// (generated on miss, served from cache on hit, deduplicated in flight),
// GET instance files, and POST an evaluation that streams per-instance
// result rows as JSONL. An in-memory LRU keeps hot suites' bytes
// resident so heavy traffic on popular suites never touches disk.
//
// Endpoints (see docs/cli.md for examples):
//
//	GET  /healthz                                  health + stats (includes draining flag)
//	GET  /healthz/live                             liveness probe (green while the process runs)
//	GET  /healthz/ready                            readiness probe (503 during drain)
//	GET  /metrics                                  Prometheus text exposition
//	GET  /v1/families                              registered benchmark families
//	GET  /v1/suites                                stored suite hashes
//	POST /v1/suites                                manifest -> suite (generate-on-miss)
//	GET  /v1/suites/{hash}                         suite index
//	GET  /v1/suites/{hash}/archive                 whole suite as a tar stream (local bytes only)
//	GET  /v1/suites/{hash}/instances/{base}        sidecar JSON
//	GET  /v1/suites/{hash}/instances/{base}/qasm   benchmark circuit
//	GET  /v1/suites/{hash}/instances/{base}/solution  known-optimal transpilation
//	POST /v1/suites/{hash}/eval                    run tools, stream JSONL rows
//
// Responses that consulted the store carry an X-Cache header: "hit" when
// the suite was already resident, "miss" when it was loaded or generated.
// Suite-derived responses additionally carry X-Suite-Hash and — being
// content-addressed and therefore immutable — a strong ETag with
// Cache-Control immutable; a conditional GET whose If-None-Match matches
// is answered 304 before the store is touched at all (see conditional.go).
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/family"
	"repro/internal/harness"
	"repro/internal/portfolio"
	"repro/internal/suite"
)

// Options tunes a Server.
type Options struct {
	// LRUSuites bounds the in-memory suite cache (default 8).
	LRUSuites int
	// MaxInstances rejects manifests whose grid exceeds this many
	// instances (default 4096) so one request cannot occupy the service
	// indefinitely.
	MaxInstances int
	// EvalWorkers bounds each evaluation's worker pool (default 1).
	EvalWorkers int
	// GenTimeout bounds each generation request (POST /v1/suites). A
	// request over budget gets 503 + Retry-After; the next caller
	// re-leads the generation. 0 means no server-side deadline.
	GenTimeout time.Duration
	// EvalTimeout bounds each evaluation request end to end. Because
	// rows stream durably into the eval log as they are produced, a
	// timed-out evaluation resumes where it stopped on retry. 0 means no
	// server-side deadline.
	EvalTimeout time.Duration
	// SelectTools resolves an eval or route request's tools parameter;
	// nil uses harness.SelectTools. The seam exists so fault-injection
	// tests can evaluate and route with misbehaving tools.
	SelectTools func(list string, sabreTrials int) ([]harness.ToolSpec, error)
	// RouteMaxDeadline caps — and, when the request omits deadline_ms,
	// supplies — a POST /v1/route race budget (default 30s).
	RouteMaxDeadline time.Duration
	// RouteHedgeDelay is the default per-tier hedge stagger for route
	// races when the request omits hedge_ms (default 100ms).
	RouteHedgeDelay time.Duration
	// Breakers tunes the per-tool circuit breakers behind POST /v1/route
	// (zero values take the portfolio defaults: trip after 3 consecutive
	// faults, 30s cooldown). The Now field is the test seam for stepping
	// through cooldowns.
	Breakers portfolio.BreakerConfig
	// DisableMetrics leaves the /metrics endpoint unregistered. Counters
	// are still collected (they cost a map increment per request); only
	// the exposition endpoint is withheld.
	DisableMetrics bool
}

// retryAfterSeconds is the Retry-After hint sent with 503 responses:
// long enough for a coalesced generation to finish or workers to drain,
// short enough that clients re-probe promptly.
const retryAfterSeconds = 5

// Server is the HTTP front end over a suite store.
type Server struct {
	store    *suite.Store
	lru      *suiteLRU
	mux      *http.ServeMux
	opts     Options
	metrics  *metrics
	breakers *portfolio.BreakerSet

	// draining is set by StartDraining: liveness stays green (the
	// process is healthy) while readiness goes red so load balancers
	// stop routing new work during graceful shutdown.
	draining atomic.Bool

	// evalMu serializes evaluations per (suite, configuration key):
	// EvalLog's append dedup is per-process per-handle, so two identical
	// concurrent requests would otherwise both open the log, both see no
	// rows done, and double-write every row. Each entry is a 1-slot
	// semaphore rather than a mutex so a waiter can abandon the queue
	// when its request dies.
	evalMuMu sync.Mutex
	evalMu   map[string]chan struct{}
}

// New builds a Server over the store.
func New(store *suite.Store, opts Options) *Server {
	if opts.LRUSuites <= 0 {
		opts.LRUSuites = 8
	}
	if opts.MaxInstances <= 0 {
		opts.MaxInstances = 4096
	}
	if opts.EvalWorkers <= 0 {
		opts.EvalWorkers = 1
	}
	if opts.SelectTools == nil {
		opts.SelectTools = harness.SelectTools
	}
	s := &Server{
		store:   store,
		lru:     newSuiteLRU(opts.LRUSuites),
		mux:     http.NewServeMux(),
		opts:    opts,
		metrics: newMetrics(),
		evalMu:  map[string]chan struct{}{},
	}
	// Breaker transitions feed the transition counter on top of any
	// caller-supplied observer.
	bcfg := opts.Breakers
	userTransition := bcfg.OnTransition
	bcfg.OnTransition = func(tool string, from, to portfolio.State) {
		s.metrics.observeBreakerTransition(tool, to)
		if userTransition != nil {
			userTransition(tool, from, to)
		}
	}
	s.breakers = portfolio.NewBreakerSet(bcfg)
	s.registerServerFamilies()
	s.handle("GET /healthz", "healthz", s.handleHealth)
	s.handle("GET /healthz/live", "healthz_live", s.handleLive)
	s.handle("GET /healthz/ready", "healthz_ready", s.handleReady)
	if !opts.DisableMetrics {
		s.handle("GET /metrics", "metrics", s.handleMetrics)
	}
	s.handle("GET /v1/families", "families", s.handleFamilies)
	s.handle("GET /v1/suites", "suites_list", s.handleList)
	s.handle("POST /v1/suites", "suites_ensure", s.handleEnsure)
	s.handle("GET /v1/suites/{hash}", "suite_index", s.handleSuite)
	s.handle("GET /v1/suites/{hash}/archive", "suite_archive", s.handleArchive)
	s.handle("GET /v1/suites/{hash}/instances/{base}", "instance_sidecar", s.handleInstance)
	s.handle("GET /v1/suites/{hash}/instances/{base}/{file}", "instance_file", s.handleInstanceFile)
	s.handle("POST /v1/suites/{hash}/eval", "eval", s.handleEval)
	s.handle("POST /v1/route", "route", s.handleRoute)
	return s
}

// handle registers an instrumented route: every request is wrapped in a
// status recorder and counted — by the stable route name, never the raw
// URL — when the handler returns. Go 1.22 "GET /x" patterns also match
// HEAD, so HEAD requests ride the same handlers (net/http discards the
// body) and are counted with their GET route.
func (s *Server) handle(pattern, route string, h http.HandlerFunc) {
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		h(rec, r)
		end := rec.last
		if end.IsZero() {
			// Nothing was ever written (e.g. the client vanished): fall
			// back to the handler's return time.
			end = time.Now()
		}
		s.metrics.observeRequest(route, rec.code, end.Sub(start))
	})
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	out := map[string]any{
		"status":     "ok",
		"draining":   s.draining.Load(),
		"stats":      s.store.Stats(),
		"lru_suites": s.lru.len(),
		"families":   family.IDs(),
	}
	if breakers := s.breakers.States(); len(breakers) > 0 {
		out["breakers"] = breakers
	}
	writeObj(w, http.StatusOK, out)
}

// handleLive is the liveness probe: green whenever the process can
// answer HTTP, draining or not — restarting a draining server would
// defeat the drain.
func (s *Server) handleLive(w http.ResponseWriter, r *http.Request) {
	writeObj(w, http.StatusOK, map[string]any{"status": "ok"})
}

// handleReady is the readiness probe: red during drain so load
// balancers stop routing new work while in-flight requests finish.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
		writeObj(w, http.StatusServiceUnavailable, map[string]any{"status": "draining"})
		return
	}
	writeObj(w, http.StatusOK, map[string]any{"status": "ready"})
}

// StartDraining flips readiness red ahead of graceful shutdown. Liveness
// and in-flight requests are unaffected; call http.Server.Shutdown after
// the load balancer has observed the probe.
func (s *Server) StartDraining() { s.draining.Store(true) }

// handleFamilies lists the registered benchmark families: the IDs a
// manifest's generator field may name, each with its scored metric and
// the manifest grid field that metric reads from.
func (s *Server) handleFamilies(w http.ResponseWriter, r *http.Request) {
	type entry struct {
		ID        string `json:"id"`
		Metric    string `json:"metric"`
		GridField string `json:"grid_field"`
	}
	var out []entry
	for _, id := range family.IDs() {
		f, err := family.ByID(id)
		if err != nil {
			continue // unreachable: IDs() lists registered families
		}
		gridField := "swap_counts"
		if f.Metric == family.Depth {
			gridField = "depths"
		}
		out = append(out, entry{ID: f.ID, Metric: string(f.Metric), GridField: gridField})
	}
	writeObj(w, http.StatusOK, map[string]any{"families": out})
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	hashes, err := s.store.List()
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	if hashes == nil {
		hashes = []string{}
	}
	writeObj(w, http.StatusOK, map[string]any{"suites": hashes})
}

// handleEnsure resolves a manifest to a suite, generating on a miss. The
// client may omit schema_version and generator; they default to the
// server's. The response is the suite index; X-Cache reports hit/miss.
func (s *Server) handleEnsure(w http.ResponseWriter, r *http.Request) {
	var m suite.Manifest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("bad manifest: %w", err))
		return
	}
	if m.SchemaVersion == 0 {
		m.SchemaVersion = suite.SchemaVersion
	}
	if m.Generator == "" {
		m.Generator = suite.GeneratorID
	}
	if err := m.Validate(); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if n := m.NumInstances(); n > s.opts.MaxInstances {
		httpError(w, http.StatusBadRequest,
			fmt.Errorf("manifest requests %d instances, server cap is %d", n, s.opts.MaxInstances))
		return
	}
	ctx := r.Context()
	if s.opts.GenTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.opts.GenTimeout)
		defer cancel()
	}
	st, err := s.store.EnsureCtx(ctx, m)
	if err != nil {
		if r.Context().Err() != nil {
			// The client vanished; nobody will read a response. The
			// store's single-flight follower retry shields any coalesced
			// requests from this cancellation.
			return
		}
		if errors.Is(err, context.DeadlineExceeded) {
			w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
			httpError(w, http.StatusServiceUnavailable,
				fmt.Errorf("suite generation exceeded the server budget %v", s.opts.GenTimeout))
			return
		}
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	s.admit(st)
	s.setCache(w, ensureLabel(st))
	w.Header().Set("ETag", suiteETag(st.Hash))
	w.Header().Set(headerSuiteHash, st.Hash)
	writeObj(w, http.StatusOK, st)
}

func (s *Server) handleSuite(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	if s.immutable(w, r, hash) {
		return
	}
	cs, label, err := s.resident(hash)
	if err != nil {
		notFoundOr500(w, err)
		return
	}
	s.setCache(w, label)
	writeObj(w, http.StatusOK, cs.suite)
}

// handleArchive serves a completed suite as a deterministic tar. It
// serves stored bytes only and never generates. The archive is built once
// into the suite's LRU entry and served from memory with a
// Content-Length, so a failed build is answered 500 before any body byte.
// An archive over the entry's byte budget streams from disk on every
// request; there a mid-stream error can only truncate the tar, which a
// tar reader reports as an unexpected EOF. Like a 304, the archive sets
// no X-Cache header and counts nothing in the suite cache metrics.
func (s *Server) handleArchive(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	if s.immutable(w, r, hash, "archive") {
		return
	}
	cs, ok := s.lru.get(hash)
	if !ok {
		st, err := s.store.Lookup(hash)
		if err != nil {
			notFoundOr500(w, err)
			return
		}
		cs = s.admit(st)
	}
	b, err := cs.archiveBytes()
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/x-tar")
	if b == nil {
		cs.writeArchive(w)
		return
	}
	w.Header().Set("Content-Length", strconv.Itoa(len(b)))
	w.Write(b)
}

func (s *Server) handleInstance(w http.ResponseWriter, r *http.Request) {
	s.serveInstanceFile(w, r, r.PathValue("base")+".json", "application/json")
}

func (s *Server) handleInstanceFile(w http.ResponseWriter, r *http.Request) {
	base := r.PathValue("base")
	switch r.PathValue("file") {
	case "qasm":
		s.serveInstanceFile(w, r, base+".qasm", "text/plain; charset=utf-8")
	case "solution":
		s.serveInstanceFile(w, r, base+".solution.qasm", "text/plain; charset=utf-8")
	default:
		httpError(w, http.StatusNotFound, fmt.Errorf("unknown instance file %q (want qasm or solution)", r.PathValue("file")))
	}
}

func (s *Server) serveInstanceFile(w http.ResponseWriter, r *http.Request, name, contentType string) {
	if strings.ContainsAny(name, "/\\") || strings.Contains(name, "..") {
		httpError(w, http.StatusBadRequest, fmt.Errorf("bad instance name"))
		return
	}
	hash := r.PathValue("hash")
	if s.immutable(w, r, hash, name) {
		return
	}
	cs, label, err := s.resident(hash)
	if err != nil {
		notFoundOr500(w, err)
		return
	}
	b, err := cs.file(name)
	if err != nil {
		httpError(w, http.StatusNotFound, fmt.Errorf("no instance file %s in suite %s", name, cs.suite.Hash))
		return
	}
	w.Header().Set("Content-Type", contentType)
	s.setCache(w, label)
	w.Write(b)
}

// handleEval runs the requested tools over the stored suite, streaming
// each newly produced row as one JSON line, then a final summary line
// {"summary": <figure>}. Rows recorded by previous evaluations with the
// same configuration are not re-run and not re-streamed; they are folded
// into the summary.
func (s *Server) handleEval(w http.ResponseWriter, r *http.Request) {
	cs, _, err := s.resident(r.PathValue("hash"))
	if err != nil {
		notFoundOr500(w, err)
		return
	}
	q := r.URL.Query()
	trials, err := intParam(q.Get("trials"), 8)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	seed, err := intParam(q.Get("seed"), 1)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	toolTimeoutMS, err := intParam(q.Get("tool_timeout_ms"), 0)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	tools, err := s.opts.SelectTools(q.Get("tools"), trials)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}

	key := harness.StoredEvalKey(tools, trials, int64(seed))

	// An eval result is determined by (suite, eval configuration), so the
	// pair makes a validator; weak, because two runs are semantically
	// equivalent (same rows, same figure) but the streamed bytes may
	// differ in row arrival order.
	w.Header().Set("ETag", "W/"+suiteETag(cs.suite.Hash, "eval", key))
	w.Header().Set(headerSuiteHash, cs.suite.Hash)

	// The request context governs everything downstream: an abandoned
	// connection cancels the eval workers, and the optional server
	// budget bounds even a patient client.
	ctx := r.Context()
	if s.opts.EvalTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.opts.EvalTimeout)
		defer cancel()
	}

	// Serialize identical eval configurations: the second request waits,
	// then resumes off the first one's completed log (streams nothing new,
	// returns the same summary). The wait honours the request context, so
	// a queued client that gives up (or runs over budget before starting)
	// frees its goroutine instead of camping on the lock.
	sem := s.evalLock(cs.suite.Hash + "/" + key)
	select {
	case sem <- struct{}{}:
		defer func() { <-sem }()
	case <-ctx.Done():
		if r.Context().Err() != nil {
			return // client gone; nothing to say, nobody to hear it
		}
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
		httpError(w, http.StatusServiceUnavailable,
			fmt.Errorf("evaluation queue wait exceeded the server budget %v", s.opts.EvalTimeout))
		return
	}

	w.Header().Set("Content-Type", "application/jsonl; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)

	// Streaming is decoupled from the evaluation workers: rows pass
	// through a buffered channel to a single writer goroutine, so a slow
	// or vanished client can never block a worker (every row is durably
	// in the eval log regardless — the stream is best-effort). If the
	// buffer fills or the request context dies, rows are dropped from the
	// stream only.
	rowCh := make(chan suite.Row, 256)
	writerDone := make(chan struct{})
	reqCtx := r.Context()
	go func() {
		defer close(writerDone)
		for row := range rowCh {
			if reqCtx.Err() != nil {
				continue // drain without writing; client is gone
			}
			enc.Encode(row)
			if flusher != nil {
				flusher.Flush()
			}
		}
	}()

	fig, err := harness.RunStoredEvalCtx(ctx, s.store, cs.suite, tools, harness.StoredEvalOptions{
		Seed:        int64(seed),
		Workers:     s.opts.EvalWorkers,
		Key:         key,
		ToolTimeout: time.Duration(toolTimeoutMS) * time.Millisecond,
		OnRow: func(row suite.Row) {
			select {
			case rowCh <- row:
			default: // stream lagging; the row is still in the log
			}
		},
	})
	close(rowCh)
	<-writerDone
	if err != nil {
		// Headers are gone; surface the failure in-band as the final
		// line. A cancellation here means the run stopped early with its
		// completed rows durably logged — the retry resumes, so the
		// figure is never silently partial.
		enc.Encode(map[string]string{"error": err.Error()})
		return
	}
	enc.Encode(map[string]any{"summary": fig})
}

// evalLock returns the 1-slot semaphore guarding one (suite, eval-key)
// pair. Semaphores are never removed; the map is bounded by distinct
// configurations seen, each a few dozen bytes.
func (s *Server) evalLock(key string) chan struct{} {
	s.evalMuMu.Lock()
	defer s.evalMuMu.Unlock()
	sem, ok := s.evalMu[key]
	if !ok {
		sem = make(chan struct{}, 1)
		s.evalMu[key] = sem
	}
	return sem
}

// resident returns the suite's in-memory entry, loading it through the
// store on first touch, with the X-Cache label for the response: "hit"
// when already resident, "miss" when loaded from the local store.
func (s *Server) resident(hash string) (*cachedSuite, string, error) {
	if cs, ok := s.lru.get(hash); ok {
		return cs, "hit", nil
	}
	st, err := s.store.Lookup(hash)
	if err != nil {
		return nil, "", err
	}
	return s.admit(st), "miss", nil
}

// admit inserts a suite into the LRU. File reads funnel through the
// store's counted reader so "this 304 touched the store zero times" is
// assertable from store stats.
func (s *Server) admit(st *suite.Suite) *cachedSuite {
	hash := st.Hash
	return s.lru.put(hash, &cachedSuite{
		suite:        st,
		read:         func(name string) ([]byte, error) { return s.store.ReadInstanceFile(hash, name) },
		writeArchive: func(w io.Writer) error { return s.store.WriteSuiteArchive(st, w) },
		budget:       maxCachedBytesPerSuite,
		files:        map[string][]byte{},
	})
}

func intParam(s string, def int) (int, error) {
	if s == "" {
		return def, nil
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bad integer parameter %q", s)
	}
	return n, nil
}

// ensureLabel is the X-Cache label for an Ensure outcome: "hit" when the
// store already held the suite, "miss" when this call generated it.
func ensureLabel(st *suite.Suite) string {
	if st.Cached {
		return "hit"
	}
	return "miss"
}

// setCache stamps the X-Cache header and counts the outcome.
func (s *Server) setCache(w http.ResponseWriter, label string) {
	w.Header().Set("X-Cache", label)
	s.metrics.observeCache(label)
}

func writeObj(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func notFoundOr500(w http.ResponseWriter, err error) {
	if errors.Is(err, suite.ErrNotFound) {
		httpError(w, http.StatusNotFound, err)
		return
	}
	httpError(w, http.StatusInternalServerError, err)
}

func httpError(w http.ResponseWriter, code int, err error) {
	// A handler may have stamped immutable caching headers before it
	// discovered the failure; an error response must never be cached as
	// the resource.
	w.Header().Del("ETag")
	w.Header().Del("Cache-Control")
	w.Header().Del(headerSuiteHash)
	writeObj(w, code, map[string]string{"error": err.Error()})
}
