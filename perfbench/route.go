package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/arch"
	"repro/internal/family"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/portfolio"
	"repro/internal/router"
	"repro/internal/suite"
)

const (
	// routeThreshold makes the first validated tier-0 result win.
	routeThreshold = 10000
	// routeTrials is the server's default LightSABRE trial count.
	routeTrials = 8
	// routeReplayN is the replay list's request count.
	routeReplayN = 40
	// routeDeadline and routeHedge are the server's defaults.
	routeDeadline = 30 * time.Second
	routeHedge    = 100 * time.Millisecond
)

var routeWorkload = workload{
	name: "serve-route",
	setup: func(ctx context.Context, dir string, seed int64) (session, error) {
		return setupRoute(ctx, dir, seed)
	},
}

// routeManifest is the one Eagle-127 suite the workload routes: optimal
// SWAP counts {5, 10, 15, 20}, two circuits each, 3000 gates.
func routeManifest(seed int64) suite.Manifest {
	return harness.SuiteConfig{
		Device:              arch.IBMEagle127(),
		SwapCounts:          []int{5, 10, 15, 20},
		CircuitsPerCount:    2,
		TargetTwoQubitGates: 3000,
		Seed:                2000 + inputFamily(seed),
	}.Manifest()
}

type routeSession struct {
	store *suite.Store
	srv   *httpServer
	st    *suite.Suite
	seed  int64 // the tools' seed in every request
	order *seededOrder
	// expected maps "tool/instance" to the tool's routed SWAPs, for the
	// tools that can win a race (tier 0).
	expected map[string]int
}

type routeReply struct {
	Tool  string `json:"tool"`
	Swaps int    `json:"swaps"`
}

func setupRoute(ctx context.Context, dir string, seed int64) (*routeSession, error) {
	store, err := suite.Open(filepath.Join(dir, "store"), suite.StoreOptions{})
	if err != nil {
		return nil, err
	}
	st, err := store.EnsureCtx(ctx, routeManifest(seed))
	if err != nil {
		return nil, err
	}
	s := &routeSession{store: store, st: st, seed: 11 + inputFamily(seed),
		order: newSeededOrder(inputFamily(seed), len(st.Instances)), expected: map[string]int{}}
	// The answer key: every tier-0 tool routed directly, outside the
	// server and the portfolio, with the seed the race gives it.
	for _, t := range harness.DefaultTools(routeTrials) {
		if portfolio.DefaultTier(t.Name) != 0 {
			continue
		}
		for _, ref := range st.Instances {
			li, err := family.ReadInstance(store.InstanceDir(st.Hash), ref.Base)
			if err != nil {
				return nil, err
			}
			res, err := router.RouteWithContext(ctx, t.Make(s.seed+7919), li.Circuit, li.Device)
			if err != nil {
				return nil, fmt.Errorf("answer key %s/%s: %w", t.Name, ref.Base, err)
			}
			s.expected[t.Name+"/"+ref.Base] = res.SwapCount
		}
	}
	if s.srv, err = startServer(store); err != nil {
		return nil, err
	}
	if _, err := s.post(ctx, 0); err != nil {
		s.srv.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return s, nil
}

func (s *routeSession) close() error { return s.srv.close() }

func (s *routeSession) instance(i int) suite.InstanceRef { return s.st.Instances[s.order.at(i)] }

// check is the per-request oracle: the winner is a tool with an answer
// key and routed exactly its expected SWAP count.
func (s *routeSession) check(base, tool string, swaps int) error {
	want, ok := s.expected[tool+"/"+base]
	if !ok {
		return fmt.Errorf("%s: winner %s has no expected answer", base, tool)
	}
	if swaps != want {
		return fmt.Errorf("%s: %s routed %d swaps, expected %d", base, tool, swaps, want)
	}
	return nil
}

// post sends route request i and checks the reply.
func (s *routeSession) post(ctx context.Context, i int) (*routeReply, error) {
	ref := s.instance(i)
	body, err := json.Marshal(map[string]any{
		"suite": s.st.Hash, "instance": ref.Base, "threshold": routeThreshold, "seed": s.seed,
	})
	if err != nil {
		return nil, err
	}
	code, b, _, err := s.srv.do(ctx, http.MethodPost, "/v1/route", body, nil)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d: %s", ref.Base, code, b)
	}
	var rep routeReply
	if err := json.Unmarshal(b, &rep); err != nil {
		return nil, err
	}
	return &rep, s.check(ref.Base, rep.Tool, rep.Swaps)
}

// httpPass sends requests closed-loop over HTTP into log, for d or up
// to request n, continuing from next.
func (s *routeSession) httpPass(ctx context.Context, log *opLog, next *atomic.Int64, d time.Duration, n int) {
	closedLoop(ctx, d, n, next, func(ctx context.Context, i int) {
		t0 := time.Now()
		_, err := s.post(ctx, i)
		log.record("", time.Since(t0), 1, err)
	})
}

// measure sends requests in serveSegment segments.
func (s *routeSession) measure(ctx context.Context, d time.Duration, m *speedometer) (*sample, error) {
	log := &opLog{}
	var next atomic.Int64
	segs, err := m.segments(d, 3, func() error {
		s.httpPass(ctx, log, &next, serveSegment, 0)
		return nil
	})
	if err != nil {
		return nil, err
	}
	smp := log.sample(0, "requests", 90, segs)
	p50, n50 := percentileNote(smp.lat, 50)
	p90, n90 := percentileNote(smp.lat, 90)
	smp.named = []namedValue{
		{"route_p50_ms", p50, "ms", n50},
		{"route_p90_ms", p90, "ms", n90},
		{"req_per_s", smp.throughput(), "1/s", fmt.Sprintf("median of %d windows, %d requests", len(smp.rates), smp.ops)},
	}
	return smp, nil
}

// replay sends the replay list over HTTP (for the server-side and
// outside-the-server times), then replays the same requests in-process
// through the layers the handler composes: read the instance, prepare
// it, race the portfolio with the handler's options.
func (s *routeSession) replay(ctx context.Context) (*replayResult, error) {
	rr := newReplayResult(serveClients)
	// Every pass runs the HTTP part, so traced and untraced passes do
	// the same work before their timed in-process part.
	if err := s.httpLayers(ctx, rr); err != nil {
		return nil, err
	}
	entries := make([]portfolio.Entry, 0, 4)
	for _, t := range harness.DefaultTools(routeTrials) {
		entries = append(entries, portfolio.Entry{Name: t.Name, Make: t.Make, Tier: portfolio.DefaultTier(t.Name)})
	}
	breakers := portfolio.NewBreakerSet(portfolio.BreakerConfig{})
	rr.wall = closedLoop(ctx, 0, routeReplayN, new(atomic.Int64), func(ctx context.Context, i int) {
		rr.op(s.replayOne(ctx, i, entries, breakers, rr))
	})
	rr.units = routeReplayN
	return rr, nil
}

func (s *routeSession) replayOne(ctx context.Context, i int, entries []portfolio.Entry, breakers *portfolio.BreakerSet, rr *replayResult) error {
	ref := s.instance(i)
	sp, _ := obs.Begin(ctx, benchCat, "family.read")
	li, err := family.ReadInstance(s.store.InstanceDir(s.st.Hash), ref.Base)
	sp.End()
	if err != nil {
		return err
	}
	sp, _ = obs.Begin(ctx, benchCat, "router.prepare")
	p, err := router.Prepare(li.Circuit, li.Device)
	if err == nil {
		p.DAG()
		p.Layers()
		p.ReversedDAG()
	}
	sp.End()
	if err != nil {
		return err
	}
	sp, rctx := obs.Begin(ctx, benchCat, "portfolio.race")
	res, err := portfolio.Run(rctx, p, entries, portfolio.Options{
		Deadline:   routeDeadline,
		Threshold:  routeThreshold,
		Optimal:    li.Meta.Optimal(),
		Metric:     li.Family.Metric,
		HedgeDelay: routeHedge,
		Seed:       s.seed,
		Breakers:   breakers,
	})
	sp.End()
	if err != nil {
		return err
	}
	rr.add("portfolio.wins."+res.Tool, 1)
	for _, r := range res.Racers {
		rr.add("portfolio.outcome."+r.Outcome, 1)
	}
	return s.check(ref.Base, res.Tool, res.Winner.SwapCount)
}

// httpLayers sends the replay list over HTTP and splits each request's
// client-observed latency into the server's own last-byte time and the
// rest (client, loopback and HTTP framing).
func (s *routeSession) httpLayers(ctx context.Context, rr *replayResult) error {
	before, err := s.srv.scrape(ctx)
	if err != nil {
		return err
	}
	log := &opLog{}
	s.httpPass(ctx, log, new(atomic.Int64), 0, routeReplayN)
	after, err := s.srv.scrape(ctx)
	if err != nil {
		return err
	}
	rr.absorb(log)
	return splitHTTP(rr, "server.route_ms", log, routeReplayN, before, after)
}

func routeLayers() []string {
	out := []string{"family.read_ms", "router.prepare_ms", "portfolio.race_ms"}
	tools := harness.ToolNames()
	for _, t := range tools {
		out = append(out, "portfolio.racer_ms."+t)
	}
	for _, t := range tools {
		out = append(out, "portfolio.wins."+t)
	}
	for _, o := range []string{portfolio.OutcomeOK, portfolio.OutcomeCancelled, portfolio.OutcomeHedged,
		portfolio.OutcomeTimeout, portfolio.OutcomeError, portfolio.OutcomePanic,
		portfolio.OutcomeInvalid, portfolio.OutcomeSkipped} {
		out = append(out, "portfolio.outcome."+o)
	}
	return append(out, "server.route_ms", "http.outside_ms")
}
