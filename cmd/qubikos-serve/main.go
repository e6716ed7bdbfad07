// Command qubikos-serve exposes the content-addressed benchmark-suite
// store over HTTP: clients POST a suite manifest — naming any registered
// benchmark family (qubikos-go/1 swap-optimal, queko-depth/1
// depth-optimal) — and receive the suite, generated on the first request
// and served bit-identically from cache on every later one; then fetch
// instance files or stream an evaluation as JSONL. An in-memory LRU
// keeps hot suites resident.
//
// On SIGTERM or SIGINT the server first flips /healthz/ready to 503
// (liveness at /healthz/live stays green) and keeps serving for
// -drain-grace so load balancers deroute it, then stops accepting
// connections and drains in-flight requests (generation and evaluation
// included) for up to -drain-timeout, exiting 0 — so rolling restarts
// never kill an evaluation mid-stream.
//
// Usage:
//
//	qubikos-serve -cache-dir /var/lib/qubikos -addr :8080
//	curl -s localhost:8080/healthz
//	curl -s localhost:8080/v1/families
//	curl -s -XPOST localhost:8080/v1/suites -d '{"device":"aspen4","swap_counts":[2],"circuits_per_count":1,"target_two_qubit_gates":40,"seed":1}'
//	curl -s -XPOST localhost:8080/v1/suites -d '{"generator":"queko-depth/1","device":"aspen4","depths":[8],"circuits_per_count":1,"target_two_qubit_gates":40,"seed":1}'
//	curl -s -XPOST "localhost:8080/v1/suites/<hash>/eval?tools=lightsabre&trials=4"
//	curl -s -XPOST localhost:8080/v1/route -d '{"suite":"<hash>","instance":"<base>","deadline_ms":2000,"threshold":1.2}'
//
// See docs/cli.md for the full endpoint reference.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/portfolio"
	"repro/internal/server"
	"repro/internal/suite"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	cacheDir := flag.String("cache-dir", "qubikos-cache", "suite store root directory")
	lruSuites := flag.Int("lru-suites", 8, "suites kept resident in memory")
	genWorkers := flag.Int("gen-workers", 0, "parallel generation workers per suite (0 = all CPUs)")
	evalWorkers := flag.Int("eval-workers", 1, "parallel evaluation workers per request")
	maxInstances := flag.Int("max-instances", 4096, "largest suite a single request may ask for")
	verify := flag.Bool("verify", false, "run the structural verifier on every generated instance")
	genTimeout := flag.Duration("gen-timeout", 0, "per-request budget for suite generation (0 = unlimited); over-budget requests get 503 + Retry-After")
	evalTimeout := flag.Duration("eval-timeout", 0, "per-request budget for evaluations (0 = unlimited); timed-out evaluations resume on retry")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight requests to finish")
	drainGrace := flag.Duration("drain-grace", time.Second, "how long readiness reports 503 before the listener closes, so load balancers can deroute")
	pprofAddr := flag.String("pprof-addr", "", "listen address for the net/http/pprof debug mux (empty = disabled)")
	metrics := flag.Bool("metrics", true, "expose Prometheus text metrics on /metrics")
	routeDeadline := flag.Duration("route-deadline", 30*time.Second, "cap on a POST /v1/route race budget; requests may ask for less, never more")
	routeHedge := flag.Duration("route-hedge", 100*time.Millisecond, "default hedge stagger between tool cost tiers for POST /v1/route")
	breakerTrip := flag.Int("breaker-trip", 3, "consecutive faults (timeout/panic/invalid) that trip a tool's circuit breaker open")
	breakerCooldown := flag.Duration("breaker-cooldown", 30*time.Second, "how long an open breaker waits before re-admitting the tool with a half-open probe")
	flag.Parse()

	// Profiling mux for perf work on live eval traffic: off by default,
	// and when enabled it listens on its own address (typically a
	// loopback port) so the debug surface is never exposed on the
	// serving address.
	if *pprofAddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			fatal(fmt.Errorf("pprof listen: %w", err))
		}
		fmt.Printf("qubikos-serve: pprof debug mux on %s\n", pln.Addr())
		go func() {
			if err := http.Serve(pln, mux); err != nil {
				fmt.Fprintln(os.Stderr, "qubikos-serve: pprof mux:", err)
			}
		}()
	}

	store, err := suite.Open(*cacheDir, suite.StoreOptions{Workers: *genWorkers, Verify: *verify})
	if err != nil {
		fatal(err)
	}
	api := server.New(store, server.Options{
		LRUSuites:        *lruSuites,
		MaxInstances:     *maxInstances,
		EvalWorkers:      *evalWorkers,
		GenTimeout:       *genTimeout,
		EvalTimeout:      *evalTimeout,
		DisableMetrics:   !*metrics,
		RouteMaxDeadline: *routeDeadline,
		RouteHedgeDelay:  *routeHedge,
		Breakers: portfolio.BreakerConfig{
			TripAfter: *breakerTrip,
			Cooldown:  *breakerCooldown,
		},
	})
	srv := &http.Server{
		Handler:           api,
		ReadHeaderTimeout: 10 * time.Second,
	}

	// Listen before installing the signal handler so the printed address
	// is always the live one (with ":0" the kernel picks the port).
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("qubikos-serve: store %s, listening on %s\n", store.Root(), ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()

	select {
	case err := <-errCh:
		if err != nil && err != http.ErrServerClosed {
			fatal(err)
		}
	case <-ctx.Done():
		stop() // a second signal kills immediately via the default handler
		// Flip readiness red first and keep serving for the grace window:
		// load balancers see /healthz/ready go 503 and stop routing new
		// work before the listener disappears.
		api.StartDraining()
		fmt.Printf("qubikos-serve: signal received, readiness red; draining in-flight requests (grace %v, up to %v)\n",
			*drainGrace, *drainTimeout)
		time.Sleep(*drainGrace)
		sctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			srv.Close()
			fatal(fmt.Errorf("drain deadline exceeded: %w", err))
		}
		fmt.Println("qubikos-serve: drained, exiting")
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "qubikos-serve:", err)
	os.Exit(1)
}
