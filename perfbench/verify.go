package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/arch"
	"repro/internal/obs"
	"repro/internal/olsq"
	"repro/internal/pool"
	"repro/internal/qubikos"
	"repro/internal/router"
)

const (
	verifyWorkers  = 2
	verifyPerCount = 8 // instances per (device, n) in a round
	verifyMaxGates = 30
)

var verifySwapCounts = []int{1, 2, 3, 4}

var verifyWorkload = workload{
	name: "verify-cert",
	setup: func(ctx context.Context, dir string, seed int64) (session, error) {
		s := &verifySession{family: inputFamily(seed), devices: []*arch.Device{arch.RigettiAspen4(), arch.Grid3x3()}}
		// Warm-up: one certification per device at the hardest n, on an
		// instance no round draws.
		for _, dev := range s.devices {
			if err := s.cert(ctx, certJob{dev: dev, n: 4, seed: -1 - s.family}, nil); err != nil {
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
		return s, nil
	},
}

type verifySession struct {
	family  int64
	devices []*arch.Device
}

type certJob struct {
	dev  *arch.Device
	n    int
	seed int64
}

// jobs returns a round of the study: devices, then n, then instance,
// the order harness.RunOptimalityStudyCtx uses, with instance seeds
// following its schedule from a base set by the input family. Every
// round certifies the same 64 instances from scratch, so a run's work
// does not depend on how many rounds fit in it: SAT time is heavy-
// tailed, and fresh instances per round made the round count decide
// which hard instances a run met.
func (s *verifySession) jobs() []certJob {
	base := s.family << 24
	var out []certJob
	for _, dev := range s.devices {
		for _, n := range verifySwapCounts {
			for i := 0; i < verifyPerCount; i++ {
				out = append(out, certJob{dev: dev, n: n, seed: base + int64(n)*100_000 + int64(i)})
			}
		}
	}
	return out
}

// cert certifies one generated instance: UNSAT at n-1, SAT at n, and
// a SAT witness that router.Validate accepts. Each layer call sits in
// its own span (inert when ctx carries no trace). rr, when non-nil,
// accumulates the solver's search counters.
func (s *verifySession) cert(ctx context.Context, j certJob, rr *replayResult) error {
	sp, _ := obs.Begin(ctx, benchCat, "qubikos.generate")
	b, err := qubikos.Generate(j.dev, qubikos.Options{
		NumSwaps:            j.n,
		MaxTwoQubitGates:    verifyMaxGates,
		TargetTwoQubitGates: verifyMaxGates,
		PreferHighDegree:    true,
		Seed:                j.seed,
	})
	sp.End()
	if err != nil {
		return fmt.Errorf("generate %s n=%d: %w", j.dev.Name(), j.n, err)
	}
	sp, _ = obs.Begin(ctx, benchCat, "qubikos.verify")
	err = qubikos.Verify(b)
	sp.End()
	if err != nil {
		return fmt.Errorf("structural verify %s n=%d: %w", j.dev.Name(), j.n, err)
	}
	sp, _ = obs.Begin(ctx, benchCat, "olsq.new")
	solver, err := olsq.New(b.Circuit, j.dev, olsq.Options{})
	sp.End()
	if err != nil {
		return err
	}
	sp, dctx := obs.Begin(ctx, benchCat, "olsq.decide_unsat")
	sat, _, err := solver.DecideCtx(dctx, j.n-1)
	sp.End()
	if err != nil {
		return err
	}
	if sat {
		return fmt.Errorf("%s n=%d (seed %d): solvable with %d swaps", j.dev.Name(), j.n, j.seed, j.n-1)
	}
	sp, dctx = obs.Begin(ctx, benchCat, "olsq.decide_sat")
	sat, w, err := solver.DecideCtx(dctx, j.n)
	sp.End()
	if err != nil {
		return err
	}
	if !sat {
		return fmt.Errorf("%s n=%d (seed %d): not solvable with the planted %d swaps", j.dev.Name(), j.n, j.seed, j.n)
	}
	sp, _ = obs.Begin(ctx, benchCat, "router.validate")
	err = router.Validate(b.Circuit, j.dev, &w.Result)
	sp.End()
	if err != nil {
		return fmt.Errorf("%s n=%d: SAT witness invalid: %w", j.dev.Name(), j.n, err)
	}
	if w.SwapCount > j.n {
		return fmt.Errorf("%s n=%d: SAT witness uses %d swaps", j.dev.Name(), j.n, w.SwapCount)
	}
	if rr != nil {
		st := solver.SolverStats()
		rr.add("sat.conflicts", float64(st.Conflicts))
		rr.add("sat.decisions", float64(st.Decisions))
		rr.add("sat.propagations", float64(st.Propagations))
		rr.add("sat.learned", float64(st.Learned))
		rr.add("sat.restarts", float64(st.Restarts))
	}
	return nil
}

// round certifies a round's jobs over the worker pool, logging each
// cert's latency from generate to verdict. It returns the summed busy
// time of the workers.
func (s *verifySession) round(ctx context.Context, log *opLog, rr *replayResult) (time.Duration, error) {
	jobs := s.jobs()
	var mu sync.Mutex
	var busy time.Duration
	err := pool.ParallelForCtx(ctx, len(jobs), verifyWorkers, func(i int) error {
		t0 := time.Now()
		cerr := s.cert(ctx, jobs[i], rr)
		d := time.Since(t0)
		if log != nil {
			log.record("", d, 1, cerr)
		}
		if rr != nil {
			rr.op(cerr)
		}
		mu.Lock()
		busy += d
		mu.Unlock()
		return nil
	})
	return busy, err
}

// measure runs whole rounds, one segment each.
func (s *verifySession) measure(ctx context.Context, d time.Duration, m *speedometer) (*sample, error) {
	log := &opLog{}
	var busy time.Duration
	segs, err := m.segments(d, 3, func() error {
		b, err := s.round(ctx, log, nil)
		busy += b
		return err
	})
	if err != nil {
		return nil, err
	}
	smp := log.sample(0, "certs", 90, segs)
	p50, n50 := percentileNote(smp.lat, 50)
	p90, n90 := percentileNote(smp.lat, 90)
	smp.named = []namedValue{
		{"certs_per_s", smp.throughput(), "1/s", fmt.Sprintf("median of %d rounds, %d certs", len(segs), smp.ops)},
		{"cert_p50_ms", p50, "ms", n50},
		{"cert_p90_ms", p90, "ms", n90},
		{"pool.idle_frac", 1 - busy.Seconds()/(smp.wall.Seconds()*verifyWorkers), "ratio", "unscaled"},
	}
	return smp, nil
}

func (s *verifySession) replay(ctx context.Context) (*replayResult, error) {
	rr := newReplayResult(verifyWorkers)
	t0 := time.Now()
	busy, err := s.round(ctx, nil, rr)
	if err != nil {
		return nil, err
	}
	rr.wall = time.Since(t0)
	rr.units = float64(rr.ops)
	rr.set("pool.idle_frac", 1-busy.Seconds()/(rr.wall.Seconds()*verifyWorkers))
	return rr, nil
}

func (s *verifySession) close() error { return nil }

func verifyLayers() []string {
	return []string{"qubikos.generate_ms", "qubikos.verify_ms", "olsq.new_ms",
		"olsq.decide_unsat_ms", "olsq.decide_sat_ms", "router.validate_ms",
		"sat.conflicts", "sat.decisions", "sat.propagations", "sat.learned", "sat.restarts",
		"pool.idle_frac"}
}
