package server

import (
	"net/http"
	"strconv"
	"time"

	"repro/internal/obs"
	"repro/internal/portfolio"
	"repro/internal/suite"
)

// metrics is the server's metric surface, built on the shared obs
// registry. The service deliberately carries no metrics dependency; the
// obs core renders the text exposition format and everything counted
// here is an atomic counter, a scrape-time gauge, or a fixed-bucket
// latency histogram.
type metrics struct {
	reg                *obs.Registry
	requests           *obs.CounterVec
	duration           *obs.HistogramVec
	cache              *obs.CounterVec
	conditional        *obs.CounterVec
	route              *obs.CounterVec
	routeWins          *obs.CounterVec
	breakerTransitions *obs.CounterVec
}

func newMetrics() *metrics {
	reg := obs.NewRegistry()
	return &metrics{
		reg: reg,
		requests: reg.CounterVec("qubikos_http_requests_total",
			"HTTP requests served, by route and status code.", "route", "code"),
		duration: reg.HistogramVec("qubikos_http_request_duration_seconds",
			"Request latency from arrival to the last response byte, by route.", nil, "route"),
		cache: reg.CounterVec("qubikos_suite_cache_total",
			"Suite-serving cache outcomes (the X-Cache header).", "result"),
		conditional: reg.CounterVec("qubikos_http_conditional_total",
			"Conditional (If-None-Match) request outcomes.", "result"),
		route: reg.CounterVec("qubikos_route_total",
			"Portfolio route races by outcome (ok, deadline_degraded, no_result, no_admissible_tool, error).", "result"),
		routeWins: reg.CounterVec("qubikos_route_wins_total",
			"Portfolio race wins by tool.", "tool"),
		breakerTransitions: reg.CounterVec("qubikos_breaker_transitions_total",
			"Circuit-breaker state transitions by tool and destination state.", "tool", "to"),
	}
}

// registerServerFamilies adds the scrape-time families that read live
// server state: LRU residency gauges and the suite store's own counters
// (exposed as bare `name value` lines, which the load-smoke CI greps
// pin).
func (s *Server) registerServerFamilies() {
	reg := s.metrics.reg
	reg.GaugeFunc("qubikos_lru_resident_suites",
		"Suites resident in the in-memory LRU.",
		func() int64 { return int64(s.lru.len()) })
	reg.GaugeFunc("qubikos_lru_cached_bytes",
		"Instance-file and archive bytes pinned by resident suites.",
		func() int64 { return s.lru.totalBytes() })
	for _, g := range []struct {
		name, help string
		fn         func(st suite.Stats) int64
	}{
		{"qubikos_store_suite_hits_total", "Ensure calls satisfied from disk.",
			func(st suite.Stats) int64 { return st.Hits }},
		{"qubikos_store_suite_misses_total", "Ensure calls that generated locally.",
			func(st suite.Stats) int64 { return st.Misses }},
		{"qubikos_store_suites_generated_total", "Completed suite generations.",
			func(st suite.Stats) int64 { return st.SuitesGenerated }},
		{"qubikos_store_instances_generated_total", "Individual benchmark generations.",
			func(st suite.Stats) int64 { return st.InstancesGenerated }},
		{"qubikos_store_file_reads_total", "Instance-file reads served by the store, archive builds included.",
			func(st suite.Stats) int64 { return st.FileReads }},
	} {
		fn := g.fn
		reg.CounterFunc(g.name, g.help, func() int64 { return fn(s.store.Stats()) })
	}
	reg.GaugeVecFunc("qubikos_breaker_state",
		"Per-tool circuit-breaker state (0 closed, 1 half-open, 2 open).", []string{"tool"},
		func() []obs.LabeledValue {
			var out []obs.LabeledValue
			for _, t := range s.breakers.States() {
				out = append(out, obs.LabeledValue{Values: []string{t.Tool}, V: int64(t.State)})
			}
			return out
		})
}

// observeRoute counts one POST /v1/route outcome.
func (m *metrics) observeRoute(result string) {
	m.route.With(result).Inc()
}

// observeRouteWin counts one portfolio race win by tool.
func (m *metrics) observeRouteWin(tool string) {
	m.routeWins.With(tool).Inc()
}

// observeBreakerTransition counts one breaker state change.
func (m *metrics) observeBreakerTransition(tool string, to portfolio.State) {
	m.breakerTransitions.With(tool, to.String()).Inc()
}

// observeRequest counts one finished request and records its latency to
// the last response byte.
func (m *metrics) observeRequest(route string, code int, elapsed time.Duration) {
	m.requests.With(route, strconv.Itoa(code)).Inc()
	m.duration.With(route).Observe(elapsed.Seconds())
}

// observeCache counts one X-Cache outcome (hit or miss).
func (m *metrics) observeCache(label string) {
	m.cache.With(label).Inc()
}

// observeConditional counts one conditional (If-None-Match) request:
// not_modified when the validator matched and the response was 304,
// revalidated when the client presented a stale validator and got the
// full body.
func (m *metrics) observeConditional(notModified bool) {
	label := "revalidated"
	if notModified {
		label = "not_modified"
	}
	m.conditional.With(label).Inc()
}

// statusRecorder captures the final status code and the time of the
// last response byte while delegating everything — including streaming
// flushes — to the wrapped writer. Tracking the last write (not the
// handler return and not the first byte) is what makes the route
// latency histogram measure time-to-last-byte for streamed evals.
type statusRecorder struct {
	http.ResponseWriter
	code  int
	wrote bool
	last  time.Time // time of the most recent header/body write or flush
}

func (r *statusRecorder) WriteHeader(code int) {
	if !r.wrote {
		r.code = code
		r.wrote = true
	}
	r.last = time.Now()
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	r.wrote = true
	n, err := r.ResponseWriter.Write(b)
	r.last = time.Now()
	return n, err
}

// Flush preserves http.Flusher through the wrapper: the eval endpoint
// streams JSONL rows and detects flushability by interface assertion.
// A flush pushes buffered bytes to the client, so it advances the
// last-byte time too.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
		r.last = time.Now()
	}
}

// handleMetrics serves the Prometheus text exposition of every
// registered family: request counters and latency histograms by route,
// cache outcome counters, conditional-request counters, LRU residency
// gauges, and the suite store's own counters.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.reg.WritePrometheus(w)
}
