package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/harness"
	"repro/internal/portfolio"
	"repro/internal/router"
	"repro/internal/sabre"
	"repro/internal/suite"
)

// routeChaosResolver serves the route tests' tool menagerie by name. The
// flaky tool shares one gate across requests so breaker recovery can be
// driven through the HTTP surface.
func routeChaosResolver(gate *chaos.FlakyGate) func(string, int) ([]harness.ToolSpec, error) {
	mk := func(name string, mode chaos.Mode) harness.ToolSpec {
		return harness.ToolSpec{Name: name, Make: func(seed int64) router.Router {
			return &chaos.Router{
				Inner:  chaosInner(seed),
				Mode:   mode,
				FirstN: gate,
			}
		}}
	}
	specs := map[string]harness.ToolSpec{
		"healthy": {Name: "healthy", Make: func(seed int64) router.Router { return chaosInner(seed) }},
		"hung":    mk("hung", chaos.HangUntilCancel),
		"panicky": mk("panicky", chaos.Panic),
		"failing": mk("failing", chaos.Fail),
		"liar":    mk("liar", chaos.WrongResult),
		"flaky":   mk("flaky", chaos.FailFirstN),
	}
	return func(list string, trials int) ([]harness.ToolSpec, error) {
		var out []harness.ToolSpec
		for _, name := range strings.Split(list, ",") {
			spec, ok := specs[strings.TrimSpace(name)]
			if !ok {
				return nil, fmt.Errorf("unknown tool %q", name)
			}
			out = append(out, spec)
		}
		return out, nil
	}
}

func chaosInner(seed int64) router.Router {
	return sabre.New(sabre.Options{Trials: 1, Seed: seed})
}

// routeTestServer builds a server with chaos tools, a shared flaky gate,
// and a steppable breaker clock.
func routeTestServer(t *testing.T, trip int, cooldown time.Duration) (*httptest.Server, *stepClock, *chaos.FlakyGate, suite.Suite) {
	t.Helper()
	store, err := suite.Open(t.TempDir(), suite.StoreOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	clock := &stepClock{t: time.Unix(1_700_000_000, 0)}
	gate := chaos.NewFlakyGate(1)
	ts := httptest.NewServer(New(store, Options{
		SelectTools: routeChaosResolver(gate),
		Breakers:    portfolio.BreakerConfig{TripAfter: trip, Cooldown: cooldown, Now: clock.now},
	}))
	t.Cleanup(ts.Close)
	var st suite.Suite
	if err := json.NewDecoder(post(t, ts.URL+"/v1/suites", tinyManifestJSON).Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return ts, clock, gate, st
}

type stepClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *stepClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *stepClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

func routeBody(t *testing.T, resp *http.Response) routeResponse {
	t.Helper()
	var out routeResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// Acceptance: with one tool hung and one panicking, the route endpoint
// still returns the healthy tool's validated result before the deadline.
func TestRouteSurvivesHungAndPanickingTools(t *testing.T) {
	ts, _, _, st := routeTestServer(t, 3, time.Minute)
	resp := post(t, ts.URL+"/v1/route", fmt.Sprintf(`{
		"suite": %q, "instance": %q,
		"tools": "hung,panicky,healthy",
		"deadline_ms": 20000, "threshold": 100, "seed": 5
	}`, st.Hash, st.Instances[0].Base))
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	out := routeBody(t, resp)
	if out.Tool != "healthy" {
		t.Fatalf("winner = %q, want healthy", out.Tool)
	}
	if out.DeadlineHit {
		t.Fatal("threshold win reported as deadline degradation")
	}
	byTool := map[string]portfolio.Racer{}
	for _, r := range out.Racers {
		byTool[r.Tool] = r
	}
	// The panic never crosses the goroutine: it is either contained into
	// its racer's report or the race ended before the verdict landed.
	if o := byTool["panicky"].Outcome; o != portfolio.OutcomePanic && o != portfolio.OutcomeCancelled {
		t.Errorf("panicky outcome = %q, want panic or cancelled", o)
	}
	if o := byTool["hung"].Outcome; o != portfolio.OutcomeCancelled && o != portfolio.OutcomeTimeout {
		t.Errorf("hung outcome = %q, want cancelled or timeout", o)
	}
	if out.Optimal != st.Instances[0].Optimal {
		t.Errorf("optimal = %d, want the sidecar's %d", out.Optimal, st.Instances[0].Optimal)
	}
}

// The deadline degrades to best-so-far: 200 with deadline_hit, never an
// error, as long as one tool validated in time.
func TestRouteDeadlineDegrades(t *testing.T) {
	ts, _, _, st := routeTestServer(t, 100, time.Minute)
	resp := post(t, ts.URL+"/v1/route", fmt.Sprintf(`{
		"suite": %q, "instance": %q,
		"tools": "hung,healthy", "deadline_ms": 700, "seed": 5
	}`, st.Hash, st.Instances[0].Base))
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	out := routeBody(t, resp)
	if !out.DeadlineHit || out.Reason != portfolio.ReasonDeadline {
		t.Fatalf("deadline_hit=%v reason=%q, want a deadline degradation", out.DeadlineHit, out.Reason)
	}
	if out.Tool != "healthy" {
		t.Fatalf("winner = %q, want healthy", out.Tool)
	}
	m := metricsText(t, ts)
	if !strings.Contains(m, `qubikos_route_total{result="deadline_degraded"} 1`) {
		t.Error("deadline_degraded not counted in /metrics")
	}
}

// Acceptance: with every tool failing, the response is a clean 503 with
// Retry-After — never a crash, never an empty 200.
func TestRouteAllToolsFailCleanly(t *testing.T) {
	ts, _, _, st := routeTestServer(t, 100, time.Minute)
	resp := post(t, ts.URL+"/v1/route", fmt.Sprintf(`{
		"suite": %q, "instance": %q,
		"tools": "failing,panicky,liar", "deadline_ms": 20000, "seed": 5
	}`, st.Hash, st.Instances[0].Base))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	var body map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body["error"] == "" {
		t.Fatal("503 body carries no error")
	}
	for _, tool := range []string{"failing", "panicky", "liar"} {
		if !strings.Contains(body["error"], tool) {
			t.Errorf("503 error does not name %q: %s", tool, body["error"])
		}
	}
}

// Acceptance: a tripped breaker skips the faulty tool on the next
// request and re-admits it after a successful half-open probe — all
// driven through HTTP, with the states visible in /metrics and /healthz.
func TestRouteBreakerTripSkipRecoverOverHTTP(t *testing.T) {
	ts, clock, gate, st := routeTestServer(t, 1, time.Minute)
	routeReq := fmt.Sprintf(`{"suite": %q, "instance": %q, "tools": "flaky", "seed": 5}`,
		st.Hash, st.Instances[0].Base)

	// Request 1: the flaky tool errors once; TripAfter=1 opens its breaker.
	if resp := post(t, ts.URL+"/v1/route", routeReq); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("request 1 status = %d, want 503 (tool failed)", resp.StatusCode)
	}
	attemptsAfterTrip := gate.Attempts()

	// Request 2: breaker open → no admissible tool → 503 + Retry-After,
	// and the tool itself is never invoked.
	resp2 := post(t, ts.URL+"/v1/route", routeReq)
	if resp2.StatusCode != http.StatusServiceUnavailable || resp2.Header.Get("Retry-After") == "" {
		t.Fatalf("request 2 status = %d (Retry-After %q), want 503 with Retry-After",
			resp2.StatusCode, resp2.Header.Get("Retry-After"))
	}
	if got := gate.Attempts(); got != attemptsAfterTrip {
		t.Fatalf("open breaker still invoked the tool (%d -> %d attempts)", attemptsAfterTrip, got)
	}
	m := metricsText(t, ts)
	if !strings.Contains(m, `qubikos_breaker_state{tool="flaky"} 2`) {
		t.Errorf("/metrics does not show the flaky breaker open:\n%s", grepLines(m, "breaker"))
	}
	if !strings.Contains(m, `qubikos_breaker_transitions_total{tool="flaky",to="open"} 1`) {
		t.Errorf("/metrics does not count the open transition:\n%s", grepLines(m, "breaker"))
	}
	if !strings.Contains(m, `qubikos_route_total{result="no_admissible_tool"} 1`) {
		t.Errorf("/metrics does not count the no-admissible-tool outcome:\n%s", grepLines(m, "route"))
	}

	// Request 3 (cooldown elapsed): the half-open probe runs the tool —
	// recovered now — and the breaker closes.
	clock.advance(time.Minute)
	resp3 := post(t, ts.URL+"/v1/route", routeReq)
	if resp3.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp3.Body)
		t.Fatalf("probe request status = %d: %s", resp3.StatusCode, b)
	}
	out := routeBody(t, resp3)
	if out.Tool != "flaky" || len(out.Racers) != 1 || !out.Racers[0].Probe {
		t.Fatalf("probe race = %+v, want flaky winning its probe", out)
	}
	m = metricsText(t, ts)
	if !strings.Contains(m, `qubikos_breaker_state{tool="flaky"} 0`) {
		t.Errorf("breaker not closed after successful probe:\n%s", grepLines(m, "breaker"))
	}

	// The breaker journey is also visible in /healthz.
	var health struct {
		Breakers []portfolio.ToolState `json:"breakers"`
	}
	if err := json.NewDecoder(get(t, ts.URL+"/healthz").Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if len(health.Breakers) != 1 || health.Breakers[0].StateName != "closed" {
		t.Fatalf("healthz breakers = %+v, want flaky closed", health.Breakers)
	}
}

// The raw form routes an ad-hoc circuit against a named device.
func TestRouteRawQASM(t *testing.T) {
	ts, _, _, st := routeTestServer(t, 100, time.Minute)
	qasmResp := get(t, ts.URL+"/v1/suites/"+st.Hash+"/instances/"+st.Instances[0].Base+"/qasm")
	qasm, err := io.ReadAll(qasmResp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(map[string]any{
		"device": "grid3x3", "qasm": string(qasm),
		"tools": "healthy", "seed": 5, "include_qasm": true,
	})
	if err != nil {
		t.Fatal(err)
	}
	resp := post(t, ts.URL+"/v1/route", string(body))
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	out := routeBody(t, resp)
	if out.Tool != "healthy" || out.QASM == "" {
		t.Fatalf("raw route = %+v, want a healthy win with transpiled qasm", out.Tool)
	}
	if out.Optimal != 0 {
		t.Fatalf("raw route without optimal claims optimal %d", out.Optimal)
	}
}

// A NaN angle is valid input: ParseQASM accepts rz(nan), and validation
// compares angles by bits, so every tool's routing of it is accepted.
// Were those routings judged invalid, three such requests would trip
// every default tool's breaker and refuse the clean request after them.
func TestRouteRawNaNAngleKeepsBreakersClosed(t *testing.T) {
	ts, _ := newTestServer(t)
	req := func(qasm string) string {
		body, err := json.Marshal(map[string]any{"device": "line-3", "qasm": qasm, "trials": 2, "seed": 1})
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	nan := req("qreg q[3]; rz(nan) q[0]; cx q[0],q[2]; cx q[1],q[2]; rz(nan) q[2];")
	for i := 0; i < 3; i++ {
		if resp := post(t, ts.URL+"/v1/route", nan); resp.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(resp.Body)
			t.Fatalf("rz(nan) request %d: status %d: %s", i, resp.StatusCode, b)
		}
	}
	resp := post(t, ts.URL+"/v1/route", req("qreg q[3]; cx q[0],q[2]; cx q[1],q[2];"))
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("clean request after the rz(nan) ones: status %d: %s", resp.StatusCode, b)
	}
}

// Malformed requests are rejected up front.
func TestRouteRejectsBadRequests(t *testing.T) {
	ts, _, _, st := routeTestServer(t, 100, time.Minute)
	for name, body := range map[string]string{
		"empty":         `{}`,
		"mixed forms":   fmt.Sprintf(`{"suite": %q, "instance": "x", "device": "grid3x3", "qasm": "y"}`, st.Hash),
		"unknown field": `{"sweet": "nothing"}`,
		"unknown tool":  fmt.Sprintf(`{"suite": %q, "instance": %q, "tools": "nonesuch"}`, st.Hash, st.Instances[0].Base),
		"bad qasm":      `{"device": "grid3x3", "qasm": "not qasm"}`,
	} {
		if resp := post(t, ts.URL+"/v1/route", body); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", name, resp.StatusCode)
		}
	}
	// The chaos resolver above is a test seam; a repeated tool is
	// rejected by the registry resolver every other server uses.
	reg, _ := newTestServer(t)
	if resp := post(t, reg.URL+"/v1/route",
		`{"device": "line-3", "qasm": "qreg q[3]; cx q[0],q[2];", "tools": "tket,tket"}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("repeated tool: status = %d, want 400", resp.StatusCode)
	}
	if resp := post(t, ts.URL+"/v1/route",
		fmt.Sprintf(`{"suite": %q, "instance": "no-such-instance"}`, st.Hash)); resp.StatusCode != http.StatusNotFound {
		t.Errorf("missing instance: status = %d, want 404", resp.StatusCode)
	}
	missing := strings.Repeat("be", 32) // well-formed hash, not stored
	if resp := post(t, ts.URL+"/v1/route",
		fmt.Sprintf(`{"suite": %q, "instance": "x"}`, missing)); resp.StatusCode != http.StatusNotFound {
		t.Errorf("missing suite: status = %d, want 404", resp.StatusCode)
	}
	// routeTestServer's store root is a t.TempDir, and every TempDir of
	// one test shares a parent.
	parent := filepath.Dir(t.TempDir())
	resp := post(t, ts.URL+"/v1/route",
		fmt.Sprintf(`{"suite": %q, "instance": "x"}`, plantEscapedSuite(t, parent)))
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("traversal suite: status = %d, want 404", resp.StatusCode)
	}
	if strings.Contains(string(body), parent) {
		t.Errorf("traversal suite: body names the store's parent directory: %s", body)
	}
}

func metricsText(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	b, err := io.ReadAll(get(t, ts.URL+"/metrics").Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func grepLines(s, substr string) string {
	var out []string
	for _, line := range strings.Split(s, "\n") {
		if strings.Contains(line, substr) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}
