package server

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/suite"
)

// TestMetricsExposition drives a little traffic and pins the Prometheus
// text surface: request counters by route and code, cache outcomes,
// conditional outcomes, LRU gauges, and the store counters.
func TestMetricsExposition(t *testing.T) {
	ts, _ := newTestServer(t)
	hash, base := ensureTiny(t, ts.URL)

	get(t, ts.URL+"/v1/suites/"+hash)                                                            // LRU hit (ensure admitted it)
	get(t, ts.URL+"/v1/suites/"+hash+"/instances/"+base+"/qasm")                                 // hit + one store file read
	do(t, http.MethodGet, ts.URL+"/v1/suites/"+hash, `"`+hash+`"`)                               // 304
	do(t, http.MethodGet, ts.URL+"/v1/suites/"+hash, `"deadbeef"`)                               // revalidated
	get(t, ts.URL+"/v1/suites/0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef") // 404

	r := get(t, ts.URL+"/metrics")
	if r.StatusCode != 200 {
		t.Fatalf("/metrics status = %d", r.StatusCode)
	}
	if ct := r.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics Content-Type = %q", ct)
	}
	body, err := io.ReadAll(r.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)

	for _, want := range []string{
		`qubikos_http_requests_total{route="suites_ensure",code="200"} 1`,
		`qubikos_http_requests_total{route="suite_index",code="304"} 1`,
		`qubikos_http_requests_total{route="suite_index",code="404"} 1`,
		`qubikos_suite_cache_total{result="hit"}`,
		`qubikos_suite_cache_total{result="miss"} 1`,
		`qubikos_http_conditional_total{result="not_modified"} 1`,
		`qubikos_http_conditional_total{result="revalidated"} 1`,
		"qubikos_lru_resident_suites 1",
		"qubikos_lru_cached_bytes",
		"qubikos_store_suite_misses_total 1",
		"qubikos_store_file_reads_total 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("full exposition:\n%s", text)
	}
}

// TestMetricsCanBeDisabled: the flag surface promises -metrics=false
// removes the endpoint entirely.
func TestMetricsCanBeDisabled(t *testing.T) {
	store, err := suite.Open(t.TempDir(), suite.StoreOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(store, Options{DisableMetrics: true})
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("/metrics with DisableMetrics = %d, want 404", rec.Code)
	}
}
