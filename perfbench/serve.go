package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
	"repro/internal/suite"
)

// serveClients is the closed-loop client count of both serve workloads.
// One: with two, serve-route ran two races of two racers each on two
// CPUs, and its throughput varied by 15% between runs at the same host
// speed.
const serveClients = 1

// httpServer is a qubikos server on a loopback listener inside this
// process, plus the client the workloads drive it with.
type httpServer struct {
	srv    *http.Server
	base   string
	client *http.Client
	done   chan error
}

func startServer(store *suite.Store) (*httpServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := &httpServer{
		srv:  &http.Server{Handler: server.New(store, server.Options{})},
		base: "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: serveClients * 2,
			DisableCompression:  true,
		}},
		done: make(chan error, 1),
	}
	go func() { h.done <- h.srv.Serve(ln) }()
	return h, nil
}

// close shuts the server down and waits for its accept loop to exit.
func (h *httpServer) close() error {
	h.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := h.srv.Shutdown(ctx)
	if serr := <-h.done; serr != http.ErrServerClosed && err == nil {
		err = serr
	}
	return err
}

// do sends one request and drains the body. It returns the status, the
// body and the response headers.
func (h *httpServer) do(ctx context.Context, method, path string, body []byte, hdr map[string]string) (int, []byte, http.Header, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, h.base+path, rd)
	if err != nil {
		return 0, nil, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := h.client.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, resp.Header, err
}

// getJSON fetches path and decodes a 200 JSON body into v.
func (h *httpServer) getJSON(ctx context.Context, path string, v any) error {
	code, b, _, err := h.do(ctx, http.MethodGet, path, nil, nil)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("GET %s: %d %s", path, code, b)
	}
	return json.Unmarshal(b, v)
}

// scrape reads /metrics into "name{labels}" -> value.
func (h *httpServer) scrape(ctx context.Context) (map[string]float64, error) {
	code, b, _, err := h.do(ctx, http.MethodGet, "/metrics", nil, nil)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %d", code)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// storeStats reads the store counters /healthz reports.
func (h *httpServer) storeStats(ctx context.Context) (suite.Stats, error) {
	var hz struct {
		Stats suite.Stats `json:"stats"`
	}
	err := h.getJSON(ctx, "/healthz", &hz)
	return hz.Stats, err
}

// durationTotals sums the server's last-byte latency histogram over
// every route except the benchmark's own scrapes, as (seconds, count).
func durationTotals(m map[string]float64) (sum, count float64) {
	for k, v := range m {
		if strings.Contains(k, `route="metrics"`) || strings.Contains(k, `route="healthz"`) {
			continue
		}
		switch {
		case strings.HasPrefix(k, "qubikos_http_request_duration_seconds_sum{"):
			sum += v
		case strings.HasPrefix(k, "qubikos_http_request_duration_seconds_count{"):
			count += v
		}
	}
	return sum, count
}

// splitHTTP divides a pass's client-observed time between the server
// and everything outside it (client, loopback, HTTP framing): it sets
// serverMetric and http.outside_ms, both per request, from the summed
// latencies in log, the pass's request count, and the /metrics
// histogram before and after.
func splitHTTP(rr *replayResult, serverMetric string, log *opLog, requests float64, before, after map[string]float64) error {
	s0, c0 := durationTotals(before)
	s1, c1 := durationTotals(after)
	if log.failed == 0 && c1-c0 != requests {
		return fmt.Errorf("server counted %v requests, client sent %v", c1-c0, requests)
	}
	var client float64
	for _, v := range log.lat {
		client += v
	}
	serverMS := (s1 - s0) * 1000
	rr.set(serverMetric, serverMS/requests)
	rr.set("http.outside_ms", (client-serverMS)/requests)
	return nil
}

// seededOrder returns an op-index -> item mapping: consecutive
// permutations of n items drawn from seed, so every item recurs at the
// same rate in any long enough window.
type seededOrder struct {
	mu   sync.Mutex
	rng  *rand.Rand
	n    int
	perm []int
}

func newSeededOrder(seed int64, n int) *seededOrder {
	return &seededOrder{rng: rand.New(rand.NewSource(seed)), n: n}
}

// at returns the item of op i; ops are drawn in index order.
func (o *seededOrder) at(i int) int {
	o.mu.Lock()
	defer o.mu.Unlock()
	for len(o.perm) <= i {
		o.perm = append(o.perm, o.rng.Perm(o.n)...)
	}
	return o.perm[i]
}

// serveSegment is how long a serve workload sends between two
// calibrations of the host's speed.
const serveSegment = 2 * time.Second

// closedLoop runs op(i) for i = next, next+1, ... on serveClients
// goroutines, each sending its next op only after the previous one
// completes. It stops issuing after d (d > 0) or once i reaches n
// (n > 0), waits for every client and returns the wall time. A later
// call with the same next continues the order.
func closedLoop(ctx context.Context, d time.Duration, n int, next *atomic.Int64, op func(ctx context.Context, i int)) time.Duration {
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if d > 0 && time.Since(t0) >= d {
					return
				}
				i := int(next.Add(1) - 1)
				if n > 0 && i >= n {
					return
				}
				op(ctx, i)
			}
		}()
	}
	wg.Wait()
	return time.Since(t0)
}
