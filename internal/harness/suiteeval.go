package harness

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/family"
	"repro/internal/pool"
	"repro/internal/router"
	"repro/internal/suite"
)

// Manifest converts a suite configuration into the content-addressed
// recipe the store keys on.
func (cfg SuiteConfig) Manifest() suite.Manifest {
	return suite.NewFamilyManifest(cfg.FamilyID(), cfg.Device.Name(), cfg.SwapCounts, cfg.CircuitsPerCount,
		family.Options{
			TargetTwoQubitGates: cfg.TargetTwoQubitGates,
			Seed:                cfg.Seed,
		})
}

// EvalKey derives a short stable identifier for an evaluation
// configuration (tool set, trial counts, seeds — whatever the caller
// deems identity-bearing). Evaluations with different keys log to
// different JSONL files inside the same suite directory.
func EvalKey(parts ...string) string {
	sum := sha256.Sum256([]byte(strings.Join(parts, "\x1f")))
	return hex.EncodeToString(sum[:8])
}

// StoredEvalKey is the key qubikos-eval and qubikos-serve give a stored
// evaluation: EvalKey over the tool names in order, then "trials=N" and
// "seed=S". Existing eval logs are named by these bytes, so a log
// written before stays resumable.
func StoredEvalKey(tools []ToolSpec, trials int, seed int64) string {
	parts := make([]string, 0, len(tools)+2)
	for _, t := range tools {
		parts = append(parts, t.Name)
	}
	parts = append(parts, fmt.Sprintf("trials=%d", trials), fmt.Sprintf("seed=%d", seed))
	return EvalKey(parts...)
}

// StoredEvalOptions tunes RunStoredEvalCtx.
type StoredEvalOptions struct {
	// Seed feeds each tool's constructor (offset per router.Guard's schedule).
	Seed int64
	// Workers bounds the evaluation worker pool; 0 means 1 (serial).
	// Budgeted routers borrow the GOMAXPROCS slots the pool leaves idle.
	// The worker count changes wall-clock time only, never results.
	Workers int
	// Key selects the evaluation log; empty derives one from the tool
	// names and seed (callers whose ToolSpec closures carry extra state,
	// e.g. trial counts, should fold that state in via EvalKey).
	Key string
	// LogPath overrides the log location (default: the suite directory's
	// evals/<key>.jsonl).
	LogPath string
	// OnRow, when non-nil, observes every newly produced row as soon as
	// it is durably logged — the streaming hook qubikos-serve uses.
	OnRow func(suite.Row)
	// ToolTimeout bounds each single (tool, instance) routing attempt.
	// A tool that exceeds it (or panics) yields a row with a non-empty
	// Error while the rest of the sweep completes; zero means no
	// per-tool deadline.
	ToolTimeout time.Duration
}

// RunStoredEvalCtx fans every tool over every instance of a stored
// suite, streaming one JSONL row per (tool, instance) into the suite's
// evaluation log. Pairs already recorded by a previous run are skipped —
// an interrupted evaluation resumes where it stopped and a finished one
// is free — and the returned Figure aggregates all rows, old and new.
// Each pair routes through router.Guard bounded by opts.ToolTimeout: a
// failing, hung or panicking tool becomes a row with a non-empty Error,
// not a wedged or crashed sweep. Results that are invalid or beat the
// proven optimum abort with an error, because they falsify the suite's
// guarantee. Cancelling ctx stops dispatching new pairs and aborts with
// the cancellation cause; rows already appended stay durable, so a
// later run with the same key resumes where this one stopped.
func RunStoredEvalCtx(ctx context.Context, store *suite.Store, st *suite.Suite, tools []ToolSpec, opts StoredEvalOptions) (*Figure, error) {
	key := opts.Key
	if key == "" {
		names := make([]string, 0, len(tools)+1)
		for _, t := range tools {
			names = append(names, t.Name)
		}
		names = append(names, fmt.Sprintf("seed=%d", opts.Seed))
		key = EvalKey(names...)
	}
	logPath := opts.LogPath
	if logPath == "" {
		logPath = suite.EvalLogPath(st.Dir, key)
	}
	log, err := suite.OpenEvalLog(logPath)
	if err != nil {
		return nil, err
	}
	defer log.Close()

	if err := scorable(st); err != nil {
		return nil, err
	}
	metric := st.Manifest.Metric()

	// Load each needed instance once and share it across tools; routing
	// never mutates the circuit.
	type job struct {
		tool ToolSpec
		ref  suite.InstanceRef
	}
	var jobs []job
	needed := map[string]bool{}
	for _, tool := range tools {
		for _, ref := range st.Instances {
			if log.Done(st.Hash, tool.Name, ref.Base) {
				continue
			}
			jobs = append(jobs, job{tool: tool, ref: ref})
			needed[ref.Base] = true
		}
	}
	items := make(map[string]EvalItem, len(needed))
	for _, ref := range st.Instances {
		if !needed[ref.Base] {
			continue
		}
		it, _, err := loadItem(store, st, ref)
		if err != nil {
			return nil, err
		}
		items[ref.Base] = it
	}

	// The cross-instance pool reserves its worker slots up front; tools
	// implementing router.BudgetedRouter borrow whatever the machine has
	// left, so instance-level and router-internal parallelism share one
	// core budget instead of multiplying.
	budget := sweepBudget(max(opts.Workers, 1))

	run := func(j job) error {
		it := items[j.ref.Base]
		t0 := time.Now()
		res, toolErr, err := routeOne(ctx, j.tool, it, opts.Seed, opts.ToolTimeout, budget)
		if err != nil {
			return err
		}
		row := suite.Row{
			Suite:     st.Hash,
			Instance:  j.ref.Base,
			Metric:    string(metric),
			Optimal:   it.Optimal,
			Tool:      j.tool.Name,
			ElapsedMS: time.Since(t0).Milliseconds(),
		}
		if res == nil {
			row.Error = "tool failed to route: " + toolErr
		} else {
			row.Swaps = res.SwapCount
			row.Depth = res.RoutedDepth()
			row.Ratio = metric.Ratio(metric.Achieved(res), it.Optimal)
		}
		if err := log.Append(row); err != nil {
			return err
		}
		if opts.OnRow != nil {
			opts.OnRow(row)
		}
		return nil
	}

	if err := pool.ParallelForCtx(ctx, len(jobs), opts.Workers, func(ji int) error {
		return run(jobs[ji])
	}); err != nil {
		return nil, err
	}

	return FigureFromRows(st, log.Rows(), tools), nil
}

// FigureFromRows aggregates evaluation rows into per-cell statistics,
// ordered by the given tool order then the suite's metric grid. Rows
// from unknown tools are ignored, so a log shared across tool subsets
// still aggregates correctly. A cell where every attempt failed reports
// zero for its gaps and counts the attempts as failures.
func FigureFromRows(st *suite.Suite, rows []suite.Row, tools []ToolSpec) *Figure {
	metric := st.Manifest.Metric()
	fig := &Figure{
		Device: st.Manifest.Device,
		Metric: string(metric),
		Gates:  st.Manifest.TargetTwoQubitGates,
	}
	byCell := map[string]map[int][]suite.Row{}
	for _, r := range rows {
		if byCell[r.Tool] == nil {
			byCell[r.Tool] = map[int][]suite.Row{}
		}
		byCell[r.Tool][r.Optimal] = append(byCell[r.Tool][r.Optimal], r)
	}
	counts := append([]int(nil), st.Manifest.Grid()...)
	sort.Ints(counts)
	for _, tool := range tools {
		for _, n := range counts {
			cell := Cell{Tool: tool.Name, Metric: string(metric), Optimal: n}
			// Rows logged before multi-metric scoring carry no depth (or
			// metric) field; averaging their zero Depth would silently
			// deflate the depth column, so they are excluded from it.
			depthRows := 0
			for _, r := range byCell[tool.Name][n] {
				if r.Error != "" {
					cell.Failures++
					continue
				}
				cell.Circuits++
				cell.MeanSwaps += float64(r.Swaps)
				if r.Metric != "" {
					cell.MeanDepth += float64(r.Depth)
					depthRows++
				}
				cell.MeanRatio += r.Ratio
				if cell.Circuits == 1 || r.Ratio < cell.MinRatio {
					cell.MinRatio = r.Ratio
				}
				if r.Ratio > cell.MaxRatio {
					cell.MaxRatio = r.Ratio
				}
			}
			if cell.Circuits > 0 {
				cell.MeanSwaps /= float64(cell.Circuits)
				cell.MeanRatio /= float64(cell.Circuits)
			}
			if depthRows > 0 {
				cell.MeanDepth /= float64(depthRows)
			}
			fig.Cells = append(fig.Cells, cell)
		}
	}
	return fig
}

// scorable rejects a suite whose scored optima include a non-positive
// value (a 0-swap degenerate suite, say): it cannot be ratio-scored, so
// it fails cleanly here rather than panicking inside a worker.
func scorable(st *suite.Suite) error {
	for _, ref := range st.Instances {
		if ref.Optimal <= 0 {
			return fmt.Errorf("harness: suite %s instance %s has no positive optimal %s to score (got %d)",
				st.Hash, ref.Base, st.Manifest.Metric(), ref.Optimal)
		}
	}
	return nil
}

// loadItem loads one stored instance as an evaluation item and builds
// its shared routing context once: every tool routes from the same
// read-only Prepared instead of re-deriving the padded circuit,
// skeleton, and DAGs per (tool, instance) job. Routing never mutates
// the circuit. The loaded instance is returned for its sidecar.
func loadItem(store *suite.Store, st *suite.Suite, ref suite.InstanceRef) (EvalItem, *family.Loaded, error) {
	li, err := store.LoadInstance(st.Hash, ref)
	if err != nil {
		return EvalItem{}, nil, err
	}
	it := EvalItem{
		ID:      ref.Base,
		Device:  li.Device,
		Circuit: li.Circuit,
		Metric:  st.Manifest.Metric(),
		Optimal: li.Meta.Optimal(),
	}
	// A context that cannot be built (circuit wider than the device) is
	// left nil: routeOne then turns the Prepare error into a failure row
	// for every tool.
	if p, err := router.Prepare(li.Circuit, li.Device); err == nil {
		it.prep = p
	}
	return it, li, nil
}
