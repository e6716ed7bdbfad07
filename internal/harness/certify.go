package harness

import (
	"context"
	"fmt"
	"io"
	"os"
	"runtime"

	"repro/internal/arch"
	"repro/internal/family"
	"repro/internal/obs"
	"repro/internal/olsq"
	"repro/internal/pool"
	"repro/internal/router"
	"repro/internal/sat"
	"repro/internal/suite"
)

// outcomeDeviation is the span outcome of a failed certificate: the
// instance does not have the optimum it claims.
const outcomeDeviation = "deviation"

// studyMaxTwoQubitGates is every Section IV-A instance's two-qubit gate
// target and hard cap: the paper's 30, small enough for the exact SAT
// check.
const studyMaxTwoQubitGates = 30

// OptimalityConfig mirrors the paper's exact-verification experiment on
// Aspen-4 and the 3x3 grid: planted optima 1-4, a 30 two-qubit-gate
// budget, and a certificate check of every instance.
type OptimalityConfig struct {
	// Family is the benchmark family (any name family.Resolve accepts);
	// empty selects the paper's qubikos swap-optimal family.
	Family string
	// SwapCounts is the grid of planted optima: SWAP counts for
	// swap-metric families, routed depths for depth-metric ones (the
	// name predates the family registry).
	SwapCounts       []int
	CircuitsPerCount int
	Seed             int64
	// Workers bounds the generation and certification worker pools; 0
	// means GOMAXPROCS. Rows are identical for any worker count.
	Workers int
}

// DefaultOptimalityConfig returns the paper's Section IV-A setting with a
// configurable instance count (the paper uses 100 per count).
func DefaultOptimalityConfig(circuitsPer int, seed int64) OptimalityConfig {
	return OptimalityConfig{
		SwapCounts:       []int{1, 2, 3, 4},
		CircuitsPerCount: circuitsPer,
		Seed:             seed,
	}
}

// OptimalityRow is one (device, planted optimum) row of the study.
type OptimalityRow struct {
	Device string
	// Metric names what Optimal counts: swaps or depth.
	Metric    string
	Optimal   int
	Circuits  int
	Verified  int
	Deviation int // instances whose certificate failed (must be 0)
}

// RunOptimalityStudyCtx stores one capped suite of the configured family
// per study device in a temporary store and certifies it with
// CertifySuite, so every planted optimum is proven on the bytes a stored
// suite holds. Rows follow the devices, then the suite's sorted grid. An
// instance that cannot be generated aborts the study; a failed
// certificate counts as a deviation. A cancelled study returns the
// cancellation cause, never a partial table.
func RunOptimalityStudyCtx(ctx context.Context, cfg OptimalityConfig) ([]OptimalityRow, error) {
	name := cfg.Family
	if name == "" {
		name = family.QubikosID
	}
	fam, err := family.Resolve(name)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "optimality-study-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	store, err := suite.Open(dir, suite.StoreOptions{Workers: cfg.Workers})
	if err != nil {
		return nil, err
	}
	var rows []OptimalityRow
	for _, dev := range []*arch.Device{arch.RigettiAspen4(), arch.Grid3x3()} {
		st, err := store.EnsureCtx(ctx, suite.NewFamilyManifest(fam.ID, dev.Name(), cfg.SwapCounts, cfg.CircuitsPerCount,
			family.Options{
				TargetTwoQubitGates: studyMaxTwoQubitGates,
				MaxTwoQubitGates:    studyMaxTwoQubitGates,
				PreferHighDegree:    true,
				Seed:                cfg.Seed,
			}))
		if err != nil {
			return nil, fmt.Errorf("harness: optimality study on %s: %w", dev.Name(), err)
		}
		verdicts, err := CertifySuite(ctx, store, st, cfg.Workers)
		if err != nil {
			return nil, err
		}
		// The suite lists its instances grid value by grid value, each
		// run starting at index 0.
		for i, ref := range st.Instances {
			if ref.Index == 0 {
				rows = append(rows, OptimalityRow{Device: dev.Name(), Metric: string(fam.Metric), Optimal: ref.Optimal})
			}
			r := &rows[len(rows)-1]
			r.Circuits++
			if verdicts[i] == nil {
				r.Verified++
			} else {
				r.Deviation++
			}
		}
	}
	return rows, nil
}

// RenderOptimality prints the study as a table; each row names the
// metric its planted optimum counts.
func RenderOptimality(w io.Writer, rows []OptimalityRow) {
	fmt.Fprintln(w, "Optimality study (every planted optimum certified, Section IV-A analogue):")
	fmt.Fprintf(w, "%-10s %-7s %8s %9s %9s %10s\n", "device", "metric", "optimum", "circuits", "verified", "deviation")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %-7s %8d %9d %9d %10d\n", r.Device, r.Metric, r.Optimal, r.Circuits, r.Verified, r.Deviation)
	}
}

// CertifySuite certifies a stored suite end to end over a pool of
// workers (0 means GOMAXPROCS): the checksum index first, then every
// instance, loaded with its stored witness, through the harness
// certifier. It returns one verdict per instance in suite order, nil for
// a certified one and "<base>: <cause>" for a failed certificate. A
// checksum mismatch or an instance that fails to load aborts with that
// error (the lowest-indexed one, for any worker count); cancelling ctx
// returns the cause and no verdicts.
func CertifySuite(ctx context.Context, store *suite.Store, st *suite.Suite, workers int) ([]error, error) {
	if err := store.VerifyChecksums(st.Hash); err != nil {
		return nil, err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	verdicts := make([]error, len(st.Instances))
	err := pool.ParallelForCtx(ctx, len(st.Instances), workers, func(i int) error {
		ref := st.Instances[i]
		li, err := store.LoadInstanceWithSolution(st.Hash, ref)
		if err != nil {
			return err
		}
		if err := certify(ctx, ref.Base, li); err != nil {
			if cerr := ctx.Err(); cerr != nil {
				return cerr // stopped mid-proof: abandon the run, not a deviation
			}
			verdicts[i] = fmt.Errorf("%s: %w", ref.Base, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return verdicts, nil
}

// certify checks one instance's planted optimum under one
// "verify"/"instance" span: the family's certificate first (the sidecar,
// plus the witness when loaded), then, for a swap optimum n, the exact
// check of Section IV-A, UNSAT at n-1 and SAT at n. A depth certificate
// needs no solver. Swap spans carry the SAT counters, zero when the
// family certificate failed first.
func certify(ctx context.Context, id string, li *family.Loaded) error {
	sp, ctx := obs.Begin(ctx, "verify", "instance")
	defer sp.End()
	n := li.Meta.Optimal()
	sp.Arg("instance", id)
	sp.Arg("device", li.Device.Name())
	sp.ArgInt("optimal", int64(n))
	err := li.Certify()
	if li.Family.Metric == family.Swaps {
		var st sat.Stats
		if err == nil {
			var s *olsq.Solver
			if s, err = olsq.New(li.Circuit, li.Device, olsq.Options{}); err == nil {
				err = s.VerifyOptimalCtx(ctx, n)
				st = s.SolverStats()
			}
		}
		sp.ArgInt("conflicts", st.Conflicts)
		sp.ArgInt("restarts", st.Restarts)
		sp.ArgInt("learned", st.Learned)
	}
	switch {
	case err == nil:
		sp.Arg("outcome", router.OutcomeOK)
	case ctx.Err() != nil:
		sp.Arg("outcome", router.OutcomeCancelled)
	default:
		sp.Arg("outcome", outcomeDeviation)
	}
	return err
}
