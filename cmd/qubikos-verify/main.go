// Command qubikos-verify reproduces the paper's Section IV-A optimality
// study: it generates small QUBIKOS instances (≤30 two-qubit gates) on
// Rigetti Aspen-4 and the 3x3 grid and certifies each one with the exact
// SAT-based layout synthesizer — UNSAT at n-1 SWAPs and SAT at n — so a
// zero-deviation table reproduces the paper's "no deviations observed"
// result. It can also verify a single QASM file against a claimed count.
//
// With -family queko-depth it runs the same study over the depth family:
// each instance's structural depth certificate is re-checked (the
// planted mapping executes every gate in place and the dependency depth
// equals the claimed optimum — lower bound meets upper bound, no solver
// needed).
//
// The study stores one suite per device in a temporary suite store and
// certifies it with harness.CertifySuite, the loop -suite runs: the
// checksum index, then per instance the family's certificate, including
// the stored witness, then the exact SAT check for swap optima. Rows
// follow each suite's grid, sorted with duplicates removed.
// Certification fans out over a worker pool (-workers, default all
// CPUs); each instance owns its verification state, so the table is
// identical for any worker count. The whole run
// is governed by one context: -timeout bounds it and SIGINT/SIGTERM
// cancels it — the SAT solver polls the context between conflicts, so
// even a deep UNSAT search stops promptly instead of hanging the
// process.
//
// With -suite and -cache-dir it certifies every instance of a stored
// suite from the content-addressed store: the store's checksum index
// first, then each instance and its stored witness — end-to-end
// assurance that the cached bytes still carry the guarantee they were
// generated with.
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
	"syscall"
	"time"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/family"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/olsq"
	"repro/internal/suite"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "qubikos-verify:", err)
		os.Exit(1)
	}
}

// run is the whole command. It returns its error instead of exiting, so
// deferred cleanups (the trace) run on every exit path and every mode reports an elapsed -timeout or
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
	workers := flag.Int("workers", 0, "parallel certification workers, and study-suite generation workers (0 = all CPUs)")
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
			if werr := obs.WriteChromeFile(tr, *tracePath, os.Stdout, os.Stderr); err == nil {
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
	grid := *swapList
	if fam.Metric == family.Depth {
		grid = *depthList
	}
	cfg := harness.DefaultOptimalityConfig(*circuits, *seed)
	cfg.Family = fam.ID
	cfg.Workers = *workers
	if cfg.SwapCounts, err = family.ParseGrid(grid, 1); err != nil {
		return err
	}

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

// verifySuite certifies a stored suite end to end through
// harness.CertifySuite and prints its verdicts. Any deviation is an
// error.
func verifySuite(ctx context.Context, cacheDir, hash string, workers int) error {
	store, err := suite.Open(cacheDir, suite.StoreOptions{})
	if err != nil {
		return err
	}
	st, err := store.Lookup(hash)
	if err != nil {
		return err
	}
	t0 := time.Now()
	verdicts, err := harness.CertifySuite(ctx, store, st, workers)
	if err != nil {
		return err
	}
	fmt.Printf("suite %s: checksums OK (%d instances, metric %s)\n", hash, len(st.Instances), st.Metric)
	bad := 0
	for _, v := range verdicts {
		if v != nil {
			bad++
			fmt.Fprintln(os.Stderr, "qubikos-verify:", v)
		}
	}
	how := "exactly"
	if st.Metric == family.Depth {
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
