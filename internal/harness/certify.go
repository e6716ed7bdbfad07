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

// OptimalityConfig mirrors the paper's exact-verification experiment:
// small devices, planted optima 1-4, a 30 two-qubit-gate budget, and a
// certificate check of every instance.
type OptimalityConfig struct {
	// Family is the benchmark family (any name family.Resolve accepts);
	// empty selects the paper's qubikos swap-optimal family.
	Family  string
	Devices []*arch.Device
	// SwapCounts is the grid of planted optima: SWAP counts for
	// swap-metric families, routed depths for depth-metric ones (the
	// name predates the family registry).
	SwapCounts       []int
	CircuitsPerCount int
	// MaxTwoQubitGates is every instance's two-qubit gate target and
	// hard cap.
	MaxTwoQubitGates int
	Seed             int64
	// Workers bounds the certification worker pool; 0 means GOMAXPROCS.
	// Rows are identical for any worker count.
	Workers int
}

// DefaultOptimalityConfig returns the paper's Section IV-A setting with a
// configurable instance count (the paper uses 100 per count).
func DefaultOptimalityConfig(circuitsPer int, seed int64) OptimalityConfig {
	return OptimalityConfig{
		Devices:          []*arch.Device{arch.RigettiAspen4(), arch.Grid3x3()},
		SwapCounts:       []int{1, 2, 3, 4},
		CircuitsPerCount: circuitsPer,
		MaxTwoQubitGates: 30,
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

// RunOptimalityStudyCtx generates capped instances of the configured
// family and certifies each one on the path a stored suite takes: a
// write and read-back through the on-disk instance format, then the
// harness certifier on those bytes. An instance that cannot be
// generated aborts the study; a failed certificate counts as a
// deviation. A cancelled study returns the cancellation cause, never a
// partial table.
func RunOptimalityStudyCtx(ctx context.Context, cfg OptimalityConfig) ([]OptimalityRow, error) {
	name := cfg.Family
	if name == "" {
		name = family.QubikosID
	}
	fam, err := family.Resolve(name)
	if err != nil {
		return nil, err
	}
	type job struct {
		dev       *arch.Device
		n, i, row int
	}
	var jobs []job
	var rows []OptimalityRow
	for _, dev := range cfg.Devices {
		for _, n := range cfg.SwapCounts {
			rows = append(rows, OptimalityRow{Device: dev.Name(), Metric: string(fam.Metric), Optimal: n})
			for i := 0; i < cfg.CircuitsPerCount; i++ {
				jobs = append(jobs, job{dev: dev, n: n, i: i, row: len(rows) - 1})
			}
		}
	}
	dir, err := os.MkdirTemp("", "optimality-study-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	verdicts, err := certifyAll(ctx, len(jobs), cfg.Workers, func(ji int) (string, *family.Loaded, error) {
		j := jobs[ji]
		id := fmt.Sprintf("%s_n%d_i%03d", j.dev.Name(), j.n, j.i)
		inst, err := fam.Generate(j.dev, family.Options{
			Optimal:             j.n,
			TargetTwoQubitGates: cfg.MaxTwoQubitGates,
			MaxTwoQubitGates:    cfg.MaxTwoQubitGates,
			PreferHighDegree:    true,
			Seed:                cfg.Seed + int64(j.n)*100_000 + int64(j.i),
		})
		if err != nil {
			return "", nil, fmt.Errorf("harness: optimality generate %s n=%d: %w", j.dev.Name(), j.n, err)
		}
		if _, err := family.WriteInstance(dir, id, inst); err != nil {
			return "", nil, err
		}
		li, err := family.ReadInstanceWithSolution(dir, id)
		return id, li, err
	})
	if err != nil {
		return nil, err
	}
	for ji, v := range verdicts {
		r := &rows[jobs[ji].row]
		r.Circuits++
		if v == nil {
			r.Verified++
		} else {
			r.Deviation++
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

// CertifySuite certifies a stored suite end to end: the checksum index
// first, then every instance, loaded with its stored witness, through
// the harness certifier. It returns one verdict per instance in suite
// order, nil for a certified one; a checksum mismatch or an instance
// that fails to load aborts with that error.
func CertifySuite(ctx context.Context, store *suite.Store, st *suite.Suite, workers int) ([]error, error) {
	if err := store.VerifyChecksums(st.Hash); err != nil {
		return nil, err
	}
	return certifyAll(ctx, len(st.Instances), workers, func(i int) (string, *family.Loaded, error) {
		ref := st.Instances[i]
		li, err := store.LoadInstanceWithSolution(st.Hash, ref)
		return ref.Base, li, err
	})
}

// certifyAll certifies n instances over a pool of workers (0 means
// GOMAXPROCS); load(i) yields the i-th instance and its ID. A load error
// aborts the run (the lowest-indexed one, for any worker count). A
// failed certificate is only that instance's verdict, "<id>: <cause>".
// Cancelling ctx returns the cause and no verdicts.
func certifyAll(ctx context.Context, n, workers int, load func(i int) (string, *family.Loaded, error)) ([]error, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	verdicts := make([]error, n)
	err := pool.ParallelForCtx(ctx, n, workers, func(i int) error {
		id, li, err := load(i)
		if err != nil {
			return err
		}
		if err := certify(ctx, id, li); err != nil {
			if cerr := ctx.Err(); cerr != nil {
				return cerr // stopped mid-proof: abandon the run, not a deviation
			}
			verdicts[i] = fmt.Errorf("%s: %w", id, err)
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
