// Command qubikos-loadtest hammers one or more qubikos-serve replicas
// with a deterministic concurrent mix of cache hits, generation misses,
// conditional GETs, archive pulls, abandoned streams, and (optionally)
// evaluations and portfolio route races, then reports what came back and
// cross-checks the fleet's store counters.
//
// Usage:
//
//	qubikos-loadtest -target http://localhost:8080 -n 2000 -c 32
//	qubikos-loadtest -target http://a:8080,http://b:8080 -expect-generations 1
//
// The exit status encodes the verdict: 0 all requests clean, 1 requests
// failed (5xx or transport errors), 2 fleet-level invariant violated
// (-expect-generations mismatch).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/loadtest"
)

// defaultManifests are two small suites (distinct seeds, so distinct
// hashes) that generate in well under a second each.
var defaultManifests = []string{
	`{"device":"grid3x3","swap_counts":[1,2],"circuits_per_count":2,"target_two_qubit_gates":15,"seed":9}`,
	`{"device":"grid3x3","swap_counts":[1],"circuits_per_count":2,"target_two_qubit_gates":15,"seed":10}`,
}

func main() {
	targets := flag.String("target", "http://localhost:8080", "comma-separated base URLs of the replicas to drive")
	total := flag.Int("n", 1000, "mixed requests to issue after warm-up")
	conc := flag.Int("c", 16, "concurrent workers")
	seed := flag.Int64("seed", 1, "request-mix seed (replays are exact)")
	manifest := flag.String("manifest", "", "manifest to exercise: inline JSON (one manifest) or a comma-separated list of @file references; default: two built-in small suites")
	tools := flag.String("tools", "", "tools parameter for the eval and route request classes (empty = no evals, all tools for routes)")
	trials := flag.Int("trials", 1, "trials parameter for eval requests")
	route := flag.Bool("route", false, "include POST /v1/route portfolio races in the mix")
	routeDeadline := flag.Duration("route-deadline", 2*time.Second, "per-race deadline for route requests")
	routeThreshold := flag.Float64("route-threshold", 0, "early-win ratio vs the proven optimum for route requests (0 = race to completion)")
	timeout := flag.Duration("timeout", 5*time.Minute, "overall run budget")
	expectGen := flag.Int("expect-generations", -1, "assert the fleet's total SuitesGenerated equals this after the run (-1 = don't)")
	flag.Parse()

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	cfg := loadtest.Config{
		Total:           *total,
		Concurrency:     *conc,
		Seed:            *seed,
		Tools:           *tools,
		EvalTrials:      *trials,
		Route:           *route,
		RouteDeadlineMS: int(routeDeadline.Milliseconds()),
		RouteThreshold:  *routeThreshold,
	}
	for _, t := range strings.Split(*targets, ",") {
		if t = strings.TrimSpace(t); t != "" {
			cfg.Targets = append(cfg.Targets, strings.TrimRight(t, "/"))
		}
	}
	cfg.Manifests = defaultManifests
	if m := strings.TrimSpace(*manifest); m != "" {
		cfg.Manifests = nil
		if strings.HasPrefix(m, "{") {
			// Inline JSON is one manifest — it contains commas, so the
			// comma-list form is @file references only.
			cfg.Manifests = []string{m}
		} else {
			for _, ref := range strings.Split(m, ",") {
				ref = strings.TrimSpace(ref)
				body, ok := strings.CutPrefix(ref, "@")
				if !ok {
					fatal(fmt.Errorf("-manifest entry %q: want inline JSON ({...}) or @file", ref))
				}
				raw, err := os.ReadFile(body)
				if err != nil {
					fatal(err)
				}
				cfg.Manifests = append(cfg.Manifests, string(raw))
			}
		}
	}

	rep, err := loadtest.Run(ctx, cfg)
	if err != nil {
		fatal(err)
	}

	out := map[string]any{"report": rep}
	var totalGen int64
	stats := map[string]loadtest.StoreStats{}
	for _, t := range cfg.Targets {
		st, err := loadtest.FetchStats(ctx, t)
		if err != nil {
			fatal(fmt.Errorf("fetch stats from %s: %w", t, err))
		}
		stats[t] = st
		totalGen += st.SuitesGenerated
	}
	out["stats"] = stats
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	enc.Encode(out)

	// Human-readable latency digest goes to stderr so stdout stays pure
	// JSON for scripted consumers.
	if len(rep.Latency) > 0 {
		fmt.Fprintln(os.Stderr, "client-observed latency per class:")
		ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
		for _, class := range rep.SortedClasses() {
			l, ok := rep.Latency[class]
			if !ok {
				continue
			}
			fmt.Fprintf(os.Stderr, "  %-11s n=%-5d p50=%9.2fms p95=%9.2fms p99=%9.2fms max=%9.2fms\n",
				class, l.Count, ms(l.P50), ms(l.P95), ms(l.P99), ms(l.Max))
		}
	}

	if rep.FailureCount > 0 {
		fmt.Fprintf(os.Stderr, "qubikos-loadtest: %d failed requests\n", rep.FailureCount)
		os.Exit(1)
	}
	if *expectGen >= 0 && totalGen != int64(*expectGen) {
		fmt.Fprintf(os.Stderr, "qubikos-loadtest: fleet generated %d suites, expected exactly %d\n", totalGen, *expectGen)
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "qubikos-loadtest:", err)
	os.Exit(1)
}
