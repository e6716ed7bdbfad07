// Command qubikos-verify reproduces the paper's Section IV-A optimality
// study: it generates small QUBIKOS instances (≤30 two-qubit gates) on
// Rigetti Aspen-4 and the 3x3 grid and certifies each one with the exact
// SAT-based layout synthesizer — UNSAT at n-1 SWAPs and SAT at n — so a
// zero-deviation table reproduces the paper's "no deviations observed"
// result. It can also verify a single QASM file against a claimed count.
//
// With -family queko-depth it instead runs the depth family's study:
// generated instances are re-checked against their structural depth
// certificate (the planted mapping executes every gate in place and the
// dependency depth equals the claimed optimum — lower bound meets upper
// bound, no solver needed).
//
// Certification fans out over a worker pool (-workers, default all
// CPUs); each instance owns its verification state, so the table is
// identical for any worker count. The whole run is governed by one
// context: -timeout bounds it and SIGINT/SIGTERM cancels it — the SAT
// solver polls the context between conflicts, so even a deep UNSAT
// search stops promptly instead of hanging the process.
//
// With -suite and -cache-dir it certifies every instance of a stored
// suite from the content-addressed store, dispatching on the suite's
// family: swap-metric suites get the exact SAT check of each claimed
// optimum, depth-metric suites get their structural depth certificate —
// plus the store's checksum index either way, end-to-end assurance that
// the cached bytes still carry the guarantee they were generated with.
//
// Usage:
//
//	qubikos-verify -circuits 10 -seed 7          # the study
//	qubikos-verify -circuits 10 -workers 4       # bounded parallelism
//	qubikos-verify -circuits 100 -timeout 10m    # hard certification budget
//	qubikos-verify -family queko-depth -depths 8,16
//	qubikos-verify -qasm bench.qasm -arch aspen4 -claim 3
//	qubikos-verify -cache-dir cache -suite <hash>
//	qubikos-verify -circuits 5 -trace out.json   # Chrome trace of the run
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/family"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/olsq"
	"repro/internal/pool"
	"repro/internal/suite"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "qubikos-verify:", err)
		os.Exit(1)
	}
}

// run is the whole command. It returns its error instead of exiting, so
// deferred cleanups (the trace, the depth study's temporary directory)
// run on every exit path and every mode reports an elapsed -timeout or
// an interrupt through the same budgetErr rewrite.
func run() (err error) {
	circuits := flag.Int("circuits", 5, "circuits per (device, grid value) cell (paper: 100)")
	seed := flag.Int64("seed", 7, "base random seed")
	famName := flag.String("family", "qubikos", "benchmark family for the study: qubikos or queko-depth")
	swapList := flag.String("swaps", "1,2,3,4", "comma-separated swap counts (qubikos study)")
	depthList := flag.String("depths", "4,8", "comma-separated routed depths (queko-depth study)")
	qasm := flag.String("qasm", "", "verify one OpenQASM file instead of running the study")
	archName := flag.String("arch", "aspen4", "device for -qasm mode")
	claim := flag.Int("claim", -1, "claimed optimal swap count for -qasm mode")
	maxK := flag.Int("maxk", 8, "search bound when no -claim is given")
	workers := flag.Int("workers", 0, "parallel certification workers (0 = all CPUs)")
	suiteHash := flag.String("suite", "", "certify a stored suite by content hash (requires -cache-dir)")
	cacheDir := flag.String("cache-dir", "", "suite store root for -suite mode")
	timeout := flag.Duration("timeout", 0, "overall certification budget; an over-budget run exits non-zero instead of hanging (0 = unlimited)")
	tracePath := flag.String("trace", "", "write a Chrome trace-event JSON of the run to this file (load in Perfetto or chrome://tracing)")
	flag.Parse()

	// One context governs the whole run: SIGINT/SIGTERM cancels it (the
	// SAT solver polls it between conflicts, so even a hard UNSAT search
	// stops promptly) and -timeout turns it into a deadline.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	// -trace attaches a span buffer to the run's context; every certified
	// instance becomes one span carrying its SAT-search counters. The
	// trace is written on every exit path, a failed run's included.
	if *tracePath != "" {
		tr := obs.New(0)
		ctx = obs.NewContext(ctx, tr)
		defer func() {
			if werr := writeTrace(*tracePath, tr); err == nil {
				err = werr
			}
		}()
	}
	defer func() { err = budgetErr(ctx, err, *timeout) }()

	if *suiteHash != "" {
		if *cacheDir == "" {
			return fmt.Errorf("-suite requires -cache-dir")
		}
		return verifySuite(ctx, *cacheDir, *suiteHash, *workers)
	}

	if *qasm != "" {
		return verifyFile(ctx, *qasm, *archName, *claim, *maxK)
	}

	fam, err := family.Resolve(*famName)
	if err != nil {
		return err
	}
	if fam.Metric == family.Depth {
		counts, err := parseCounts(*depthList)
		if err != nil {
			return err
		}
		return runDepthStudy(ctx, fam, counts, *circuits, *seed, *workers)
	}

	cfg := harness.DefaultOptimalityConfig(*circuits, *seed)
	cfg.Workers = *workers
	counts, err := parseCounts(*swapList)
	if err != nil {
		return err
	}
	cfg.SwapCounts = counts

	t0 := time.Now()
	rows, err := harness.RunOptimalityStudyCtx(ctx, cfg)
	if err != nil {
		return err
	}
	harness.RenderOptimality(os.Stdout, rows)
	total, dev := 0, 0
	for _, r := range rows {
		total += r.Circuits
		dev += r.Deviation
	}
	fmt.Printf("\n%d circuits verified in %v; deviations: %d\n", total, time.Since(t0).Round(time.Millisecond), dev)
	if dev > 0 {
		return fmt.Errorf("%d of %d circuits deviate from their claimed optimum", dev, total)
	}
	return nil
}

func writeTrace(path string, tr *obs.Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Println("wrote", path)
	return nil
}

// runDepthStudy is the depth family's analogue of the Section IV-A
// study: generate instances on the study devices and re-check each one's
// structural depth certificate through a serialize/parse round trip — the
// exact path a stored suite takes.
func runDepthStudy(ctx context.Context, fam *family.Family, depths []int, circuits int, seed int64, workers int) error {
	devices := []*arch.Device{arch.RigettiAspen4(), arch.Grid3x3()}
	type job struct {
		dev *arch.Device
		d   int
		i   int
	}
	var jobs []job
	for _, dev := range devices {
		for _, d := range depths {
			for i := 0; i < circuits; i++ {
				jobs = append(jobs, job{dev: dev, d: d, i: i})
			}
		}
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	t0 := time.Now()
	dir, err := os.MkdirTemp("", "queko-study-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	err = pool.ParallelForCtx(ctx, len(jobs), workers, func(ji int) error {
		j := jobs[ji]
		inst, err := fam.Generate(j.dev, family.Options{
			Optimal:             j.d,
			TargetTwoQubitGates: 30,
			Seed:                seed + int64(j.d)*100_000 + int64(j.i),
		})
		if err != nil {
			return fmt.Errorf("generate %s depth=%d: %w", j.dev.Name(), j.d, err)
		}
		if err := inst.Verify(); err != nil {
			return fmt.Errorf("structural verify %s depth=%d: %w", j.dev.Name(), j.d, err)
		}
		base := fmt.Sprintf("j%06d", ji)
		if _, err := family.WriteInstance(dir, base, inst); err != nil {
			return err
		}
		li, err := family.ReadInstanceWithSolution(dir, base)
		if err != nil {
			return err
		}
		if err := li.Certify(); err != nil {
			return fmt.Errorf("depth certificate %s depth=%d: %w", j.dev.Name(), j.d, err)
		}
		return nil
	})
	if err != nil {
		return err
	}
	fmt.Printf("Depth-certificate study (family %s):\n", fam.ID)
	fmt.Printf("%-10s %9s %9s %9s\n", "device", "depths", "circuits", "certified")
	for _, dev := range devices {
		fmt.Printf("%-10s %9v %9d %9d\n", dev.Name(), depths, len(depths)*circuits, len(depths)*circuits)
	}
	fmt.Printf("\n%d circuits certified in %v; deviations: 0\n", len(jobs), time.Since(t0).Round(time.Millisecond))
	return nil
}

// verifySuite certifies a stored suite end to end: the checksum index
// first (the bytes are the bytes that were generated), then each
// instance per its family's metric — the exact SAT solver for
// swap-metric suites, the structural depth certificate for depth-metric
// ones — fanned over a worker pool. Any deviation is an error.
func verifySuite(ctx context.Context, cacheDir, hash string, workers int) error {
	store, err := suite.Open(cacheDir, suite.StoreOptions{})
	if err != nil {
		return err
	}
	st, err := store.Lookup(hash)
	if err != nil {
		return err
	}
	if err := store.VerifyChecksums(hash); err != nil {
		return err
	}
	fmt.Printf("suite %s: checksums OK (%d instances, metric %s)\n", hash, len(st.Instances), st.Metric)

	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	depthMetric := st.Metric == family.Depth
	t0 := time.Now()
	// Every instance is attempted (certification failures are collected,
	// not fail-fast), so the per-index fn always returns nil and the only
	// pool-level error is a cancellation.
	errs := make([]error, len(st.Instances))
	poolErr := pool.ParallelForCtx(ctx, len(st.Instances), workers, func(ji int) error {
		ref := st.Instances[ji]
		sp, ctx := obs.Begin(ctx, "verify", "instance")
		defer sp.End()
		sp.Arg("instance", ref.Base)
		sp.ArgInt("optimal", int64(ref.Optimal))
		if depthMetric {
			li, err := store.LoadInstanceWithSolution(hash, ref)
			if err == nil {
				err = li.Certify()
			}
			if err != nil {
				errs[ji] = fmt.Errorf("%s: %w", ref.Base, err)
			}
			return nil
		}
		li, err := store.LoadInstance(hash, ref)
		if err != nil {
			errs[ji] = err
			return nil
		}
		s, err := olsq.New(li.Circuit, li.Device, olsq.Options{})
		if err != nil {
			errs[ji] = fmt.Errorf("%s: %w", ref.Base, err)
			return nil
		}
		verr := s.VerifyOptimalCtx(ctx, li.Meta.OptimalSwaps)
		stats := s.SolverStats()
		sp.ArgInt("conflicts", stats.Conflicts)
		sp.ArgInt("restarts", stats.Restarts)
		sp.ArgInt("learned", stats.Learned)
		if verr != nil {
			if ctx.Err() != nil {
				return verr
			}
			errs[ji] = fmt.Errorf("%s: %w", ref.Base, verr)
		}
		return nil
	})
	if poolErr != nil {
		return poolErr
	}
	bad := 0
	for _, err := range errs {
		if err != nil {
			bad++
			fmt.Fprintln(os.Stderr, "qubikos-verify:", err)
		}
	}
	how := "exactly"
	if depthMetric {
		how = "by depth certificate"
	}
	fmt.Printf("%d/%d instances certified %s in %v\n",
		len(st.Instances)-bad, len(st.Instances), how, time.Since(t0).Round(time.Millisecond))
	if bad > 0 {
		return fmt.Errorf("%d of %d instances failed certification", bad, len(st.Instances))
	}
	return nil
}

func verifyFile(ctx context.Context, path, archName string, claim, maxK int) error {
	devc, err := arch.ByName(archName)
	if err != nil {
		return err
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	c, err := circuit.ParseQASM(f)
	if err != nil {
		return err
	}
	s, err := olsq.New(c, devc, olsq.Options{})
	if err != nil {
		return err
	}
	if claim >= 0 {
		if err := s.VerifyOptimalCtx(ctx, claim); err != nil {
			return err
		}
		fmt.Printf("%s: optimal SWAP count is exactly %d (verified)\n", path, claim)
		return nil
	}
	res, err := s.MinSwapsCtx(ctx, maxK)
	if err != nil {
		return err
	}
	fmt.Printf("%s: optimal SWAP count is %d (searched up to %d)\n", path, res.SwapCount, maxK)
	return nil
}

func parseCounts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		var n int
		if _, err := fmt.Sscanf(strings.TrimSpace(part), "%d", &n); err != nil || n < 1 {
			return nil, fmt.Errorf("bad grid value %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}

// budgetErr rewrites a cancellation-shaped error into a message that
// names its cause — an elapsed -timeout budget or an interrupt signal —
// instead of the bare "context deadline exceeded".
func budgetErr(ctx context.Context, err error, timeout time.Duration) error {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		if timeout > 0 {
			return fmt.Errorf("certification exceeded the -timeout budget %v", timeout)
		}
		return fmt.Errorf("certification exceeded its deadline: %w", err)
	case errors.Is(err, context.Canceled) && ctx.Err() != nil:
		return fmt.Errorf("interrupted; certification stopped cleanly")
	default:
		return err
	}
}
