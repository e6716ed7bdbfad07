package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/suite"
)

const tinyManifestJSON = `{
	"device": "grid3x3",
	"swap_counts": [1],
	"circuits_per_count": 1,
	"target_two_qubit_gates": 15,
	"max_two_qubit_gates": 30,
	"prefer_high_degree": true,
	"seed": 9
}`

func newTestServer(t *testing.T) (*httptest.Server, *suite.Store) {
	t.Helper()
	store, err := suite.Open(t.TempDir(), suite.StoreOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(store, Options{LRUSuites: 2}))
	t.Cleanup(ts.Close)
	return ts, store
}

func post(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func get(t *testing.T, url string) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// The aha moment: the first manifest POST generates, the second is a
// byte-for-byte cache hit and generates nothing.
func TestEnsureTwiceSecondIsCacheHit(t *testing.T) {
	ts, store := newTestServer(t)

	r1 := post(t, ts.URL+"/v1/suites", tinyManifestJSON)
	if r1.StatusCode != http.StatusOK {
		t.Fatalf("first POST: status %d", r1.StatusCode)
	}
	if got := r1.Header.Get("X-Cache"); got != "miss" {
		t.Errorf("first POST X-Cache = %q, want miss", got)
	}
	var s1 suite.Suite
	if err := json.NewDecoder(r1.Body).Decode(&s1); err != nil {
		t.Fatal(err)
	}
	if s1.Cached || len(s1.Instances) != 1 {
		t.Errorf("first response: cached=%v instances=%d, want fresh suite with 1 instance", s1.Cached, len(s1.Instances))
	}
	gen := store.Stats().InstancesGenerated

	r2 := post(t, ts.URL+"/v1/suites", tinyManifestJSON)
	if got := r2.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("second POST X-Cache = %q, want hit", got)
	}
	var s2 suite.Suite
	if err := json.NewDecoder(r2.Body).Decode(&s2); err != nil {
		t.Fatal(err)
	}
	if !s2.Cached || s2.Hash != s1.Hash {
		t.Errorf("second response: cached=%v hash=%s, want cached copy of %s", s2.Cached, s2.Hash, s1.Hash)
	}
	if got := store.Stats().InstancesGenerated; got != gen {
		t.Errorf("second POST generated %d new instances, want 0", got-gen)
	}
}

func TestInstanceEndpoints(t *testing.T) {
	ts, store := newTestServer(t)
	var st suite.Suite
	if err := json.NewDecoder(post(t, ts.URL+"/v1/suites", tinyManifestJSON).Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	base := st.Instances[0].Base

	r := get(t, ts.URL+"/v1/suites/"+st.Hash)
	if r.StatusCode != http.StatusOK {
		t.Errorf("suite index: status %d", r.StatusCode)
	}

	r = get(t, ts.URL+"/v1/suites/"+st.Hash+"/instances/"+base)
	var meta map[string]any
	if err := json.NewDecoder(r.Body).Decode(&meta); err != nil {
		t.Fatal(err)
	}
	if meta["optimal_swaps"].(float64) != 1 {
		t.Errorf("sidecar optimal_swaps = %v, want 1", meta["optimal_swaps"])
	}

	for _, kind := range []string{"qasm", "solution"} {
		r = get(t, ts.URL+"/v1/suites/"+st.Hash+"/instances/"+base+"/"+kind)
		if r.StatusCode != http.StatusOK {
			t.Errorf("%s: status %d", kind, r.StatusCode)
			continue
		}
		buf := make([]byte, 16)
		n, _ := r.Body.Read(buf)
		if !strings.HasPrefix(string(buf[:n]), "OPENQASM 2.0;") {
			t.Errorf("%s does not look like QASM: %q", kind, buf[:n])
		}
	}

	if r := get(t, ts.URL+"/v1/suites/"+st.Hash+"/instances/"+base+"/nope"); r.StatusCode != http.StatusNotFound {
		t.Errorf("unknown file kind: status %d, want 404", r.StatusCode)
	}
	if r := get(t, ts.URL+"/v1/suites/"+strings.Repeat("0", 64)); r.StatusCode != http.StatusNotFound {
		t.Errorf("missing suite: status %d, want 404", r.StatusCode)
	}
	parent := filepath.Dir(store.Root())
	for _, addr := range []string{"short", plantEscapedSuite(t, parent)} {
		for _, rest := range []string{"", "/archive", "/instances/" + base, "/instances/" + base + "/qasm"} {
			r := get(t, ts.URL+"/v1/suites/"+url.PathEscape(addr)+rest)
			body, _ := io.ReadAll(r.Body)
			if r.StatusCode != http.StatusNotFound {
				t.Errorf("malformed address %q%s: status %d, want 404", addr, rest, r.StatusCode)
			}
			if strings.Contains(string(body), parent) {
				t.Errorf("malformed address %q%s: body names the store's parent directory: %s", addr, rest, body)
			}
		}
	}
}

// plantEscapedSuite plants a COMPLETE marker in parent, the directory
// above a test store's root, and returns the 64-character address
// "../<61 chars>" that the store's directory layout would resolve to it.
// A store that built a path from that address would find the marker and
// fail to read the manifest beside it.
func plantEscapedSuite(t *testing.T, parent string) string {
	t.Helper()
	name := strings.Repeat("e", 61)
	if err := os.MkdirAll(filepath.Join(parent, name), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(parent, name, "COMPLETE"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	return "../" + name
}

func TestEvalStreamsRowsAndSummary(t *testing.T) {
	ts, store := newTestServer(t)
	var st suite.Suite
	if err := json.NewDecoder(post(t, ts.URL+"/v1/suites", tinyManifestJSON).Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	gen := store.Stats().InstancesGenerated

	r := post(t, ts.URL+"/v1/suites/"+st.Hash+"/eval?tools=lightsabre&trials=2", "")
	if r.StatusCode != http.StatusOK {
		t.Fatalf("eval: status %d", r.StatusCode)
	}
	dec := json.NewDecoder(r.Body)
	var lines []map[string]any
	for dec.More() {
		var obj map[string]any
		if err := dec.Decode(&obj); err != nil {
			t.Fatal(err)
		}
		lines = append(lines, obj)
	}
	if len(lines) != 2 { // 1 row + 1 summary
		t.Fatalf("streamed %d lines, want 2: %v", len(lines), lines)
	}
	if lines[0]["tool"] != "lightsabre" || lines[0]["instance"] != st.Instances[0].Base {
		t.Errorf("row = %v", lines[0])
	}
	summary, ok := lines[len(lines)-1]["summary"].(map[string]any)
	if !ok {
		t.Fatalf("last line is not a summary: %v", lines[len(lines)-1])
	}
	if summary["device"] != "grid3x3" {
		t.Errorf("summary device = %v", summary["device"])
	}
	if got := store.Stats().InstancesGenerated; got != gen {
		t.Errorf("eval generated %d instances, want 0", got-gen)
	}

	// Re-running the identical eval streams no rows (resumed from log),
	// only the summary.
	r2 := post(t, ts.URL+"/v1/suites/"+st.Hash+"/eval?tools=lightsabre&trials=2", "")
	dec2 := json.NewDecoder(r2.Body)
	var lines2 []map[string]any
	for dec2.More() {
		var obj map[string]any
		if err := dec2.Decode(&obj); err != nil {
			t.Fatal(err)
		}
		lines2 = append(lines2, obj)
	}
	if len(lines2) != 1 {
		t.Errorf("resumed eval streamed %d lines, want just the summary", len(lines2))
	}
}

// Identical concurrent eval requests must not double-write the shared
// log: the rows streamed across all requests total exactly one per
// (tool, instance), and every summary agrees.
func TestConcurrentIdenticalEvalsWriteOnce(t *testing.T) {
	ts, _ := newTestServer(t)
	var st suite.Suite
	if err := json.NewDecoder(post(t, ts.URL+"/v1/suites", tinyManifestJSON).Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	const callers = 4
	rowCounts := make([]int, callers)
	summaries := make([]string, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/suites/"+st.Hash+"/eval?tools=lightsabre&trials=2", "application/json", nil)
			if err != nil {
				errs[c] = err
				return
			}
			defer resp.Body.Close()
			dec := json.NewDecoder(resp.Body)
			for dec.More() {
				var obj map[string]json.RawMessage
				if err := dec.Decode(&obj); err != nil {
					errs[c] = err
					return
				}
				if s, ok := obj["summary"]; ok {
					summaries[c] = string(s)
				} else {
					rowCounts[c]++
				}
			}
		}(c)
	}
	wg.Wait()
	total := 0
	for c := 0; c < callers; c++ {
		if errs[c] != nil {
			t.Fatalf("caller %d: %v", c, errs[c])
		}
		total += rowCounts[c]
		if summaries[c] == "" {
			t.Errorf("caller %d got no summary", c)
		}
		if summaries[c] != summaries[0] {
			t.Errorf("caller %d summary differs:\n%s\nvs\n%s", c, summaries[c], summaries[0])
		}
	}
	if total != 1 { // one tool × one instance, evaluated exactly once
		t.Errorf("callers streamed %d rows in total, want exactly 1", total)
	}
}

func TestEnsureRejectsBadManifests(t *testing.T) {
	ts, _ := newTestServer(t)
	for name, body := range map[string]string{
		"garbage":       "{",
		"unknown field": `{"device":"grid3x3","swap_counts":[1],"circuits_per_count":1,"bogus":1}`,
		"bad device":    `{"device":"warp-core","swap_counts":[1],"circuits_per_count":1,"seed":1}`,
		"zero circuits": `{"device":"grid3x3","swap_counts":[1],"circuits_per_count":0,"seed":1}`,
	} {
		if r := post(t, ts.URL+"/v1/suites", body); r.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, r.StatusCode)
		}
	}
	// Grid cap.
	ts2, _ := newTestServer(t)
	big := `{"device":"grid3x3","swap_counts":[1,2,3,4],"circuits_per_count":2000,"seed":1}`
	if r := post(t, ts2.URL+"/v1/suites", big); r.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized grid: status %d, want 400", r.StatusCode)
	}
}

func TestHealthAndList(t *testing.T) {
	ts, _ := newTestServer(t)
	r := get(t, ts.URL+"/healthz")
	var health map[string]any
	if err := json.NewDecoder(r.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health["status"] != "ok" {
		t.Errorf("health = %v", health)
	}

	post(t, ts.URL+"/v1/suites", tinyManifestJSON)
	r = get(t, ts.URL+"/v1/suites")
	var listing map[string][]string
	if err := json.NewDecoder(r.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	if len(listing["suites"]) != 1 {
		t.Errorf("listing = %v, want one suite", listing)
	}
}

func TestLRUEviction(t *testing.T) {
	l := newSuiteLRU(2)
	mk := func(h string) *cachedSuite { return &cachedSuite{suite: &suite.Suite{Hash: h}} }
	l.put("a", mk("a"))
	l.put("b", mk("b"))
	l.get("a") // refresh a; b is now oldest
	l.put("c", mk("c"))
	if _, ok := l.get("b"); ok {
		t.Error("b survived eviction; LRU order not respected")
	}
	for _, h := range []string{"a", "c"} {
		if _, ok := l.get(h); !ok {
			t.Errorf("%s evicted, want resident", h)
		}
	}
	if l.len() != 2 {
		t.Errorf("len = %d, want 2", l.len())
	}
}

const tinyDepthManifestJSON = `{
	"generator": "queko-depth/1",
	"device": "grid3x3",
	"depths": [3],
	"circuits_per_count": 1,
	"target_two_qubit_gates": 10,
	"seed": 9
}`

// A depth-family suite must serve end to end over HTTP: generate on the
// first POST, hit the cache on the second, expose instances, and stream
// a depth-scored evaluation.
func TestDepthSuiteOverHTTP(t *testing.T) {
	ts, store := newTestServer(t)

	r1 := post(t, ts.URL+"/v1/suites", tinyDepthManifestJSON)
	if r1.StatusCode != http.StatusOK {
		t.Fatalf("first POST: status %d", r1.StatusCode)
	}
	if got := r1.Header.Get("X-Cache"); got != "miss" {
		t.Errorf("first POST X-Cache = %q, want miss", got)
	}
	var s1 suite.Suite
	if err := json.NewDecoder(r1.Body).Decode(&s1); err != nil {
		t.Fatal(err)
	}
	if s1.Metric != "depth" || len(s1.Instances) != 1 || s1.Instances[0].Optimal != 3 {
		t.Fatalf("suite = metric %q, %d instances, optimal %d", s1.Metric, len(s1.Instances), s1.Instances[0].Optimal)
	}
	gen := store.Stats().InstancesGenerated

	r2 := post(t, ts.URL+"/v1/suites", tinyDepthManifestJSON)
	if got := r2.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("second POST X-Cache = %q, want hit", got)
	}
	if got := store.Stats().InstancesGenerated; got != gen {
		t.Errorf("second POST generated %d new instances, want 0", got-gen)
	}

	// Instance files serve for the d-prefixed base names.
	base := s1.Instances[0].Base
	if r := get(t, ts.URL+"/v1/suites/"+s1.Hash+"/instances/"+base+"/qasm"); r.StatusCode != http.StatusOK {
		t.Errorf("qasm fetch: status %d", r.StatusCode)
	}

	// Evaluation rows score depth.
	r := post(t, ts.URL+"/v1/suites/"+s1.Hash+"/eval?tools=lightsabre,tket&trials=2", "")
	dec := json.NewDecoder(r.Body)
	rows, summaries := 0, 0
	for dec.More() {
		var obj map[string]any
		if err := dec.Decode(&obj); err != nil {
			t.Fatal(err)
		}
		if _, ok := obj["summary"]; ok {
			summaries++
			continue
		}
		rows++
		if obj["metric"] != "depth" {
			t.Errorf("row metric = %v, want depth", obj["metric"])
		}
		if obj["ratio"].(float64) < 1 {
			t.Errorf("depth ratio %v below 1", obj["ratio"])
		}
	}
	if rows != 2 || summaries != 1 {
		t.Errorf("streamed %d rows and %d summaries, want 2 and 1", rows, summaries)
	}
}

// The families endpoint lists the registry so clients can discover what
// a manifest's generator field may name.
func TestFamiliesEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	r := get(t, ts.URL+"/v1/families")
	var listing map[string][]map[string]string
	if err := json.NewDecoder(r.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	byID := map[string]map[string]string{}
	for _, f := range listing["families"] {
		byID[f["id"]] = f
	}
	if f := byID["qubikos-go/1"]; f == nil || f["metric"] != "swaps" || f["grid_field"] != "swap_counts" {
		t.Errorf("qubikos family entry = %v", byID["qubikos-go/1"])
	}
	if f := byID["queko-depth/1"]; f == nil || f["metric"] != "depth" || f["grid_field"] != "depths" {
		t.Errorf("queko-depth family entry = %v", byID["queko-depth/1"])
	}
}

// An unknown tool in the eval query is rejected with the registered
// tools listed, never silently skipped, and so is a repeated one.
func TestEvalRejectsUnknownTool(t *testing.T) {
	ts, _ := newTestServer(t)
	var st suite.Suite
	if err := json.NewDecoder(post(t, ts.URL+"/v1/suites", tinyManifestJSON).Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	r := post(t, ts.URL+"/v1/suites/"+st.Hash+"/eval?tools=lightsabre,warpdrive", "")
	if r.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown tool: status %d, want 400", r.StatusCode)
	}
	var body map[string]string
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"lightsabre", "ml-qls", "qmap", "tket"} {
		if !strings.Contains(body["error"], name) {
			t.Errorf("error %q does not list registered tool %s", body["error"], name)
		}
	}

	r = post(t, ts.URL+"/v1/suites/"+st.Hash+"/eval?tools=tket,lightsabre,tket", "")
	if r.StatusCode != http.StatusBadRequest {
		t.Fatalf("repeated tool: status %d, want 400", r.StatusCode)
	}
	body = nil
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(body["error"], `"tket"`) {
		t.Errorf("repeated-tool error %q does not name tket", body["error"])
	}
}
