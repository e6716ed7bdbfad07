// Command qubikos-eval reproduces the paper's Figure 4 and its
// multi-metric extensions: it obtains benchmark suites from a registered
// family on the chosen architectures, runs the selected QLS tools
// (LightSABRE, ML-QLS, QMAP-style, t|ket⟩-style), and prints per-cell
// optimality-gap tables plus the abstract-style per-tool averages. With
// -family queko-depth the suites carry known-optimal routed depth and
// every ratio scores depth instead of SWAPs; each table row is labeled
// with its metric either way.
//
// Every run evaluates through the content-addressed suite store. With
// -cache-dir the store persists: suites are generated on the first run
// and reused bit-identically afterwards — a second evaluation of the
// same configuration generates nothing. Without it the run uses a
// temporary store, removed on exit. Each evaluation streams
// per-instance rows into a JSONL log inside the suite directory (keyed
// by tool set, trials and seed), so an interrupted run over a persistent
// store resumes where it stopped; -jsonl additionally copies the rows to
// a file of your choosing. With -suite the command evaluates one stored
// suite by content hash instead of the Figure-4 configurations.
//
// Usage:
//
//	qubikos-eval                                  # CI-scale run, all devices
//	qubikos-eval -circuits 10 -trials 64          # closer to paper scale
//	qubikos-eval -arch rochester53 -csv out.csv   # one subplot, CSV export
//	qubikos-eval -tools lightsabre,tket           # a tool subset
//	qubikos-eval -family queko-depth -depths 8,16 # depth-objective suites
//	qubikos-eval -cache-dir cache                 # persistent store, resumable
//	qubikos-eval -cache-dir cache -suite <hash>   # one stored suite
//	qubikos-eval -trace out.json                  # Chrome trace of the run
//
// Every run prints a wall-time summary table at the end: per (phase,
// span, tool), how many spans ran and their total/mean/max durations.
// -trace additionally exports every span as Chrome trace-event JSON for
// Perfetto or chrome://tracing.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"repro/internal/arch"
	"repro/internal/family"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/suite"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "qubikos-eval:", err)
		os.Exit(1)
	}
}

// run is the whole command. It returns its error instead of exiting, so
// its deferred cleanups (the temporary store, the profiles) run on every
// exit path.
func run() (err error) {
	archName := flag.String("arch", "all", "device (aspen4, sycamore54, rochester53, eagle127) or all")
	famName := flag.String("family", "qubikos", "benchmark family: qubikos (optimal swaps) or queko-depth (optimal depth)")
	circuits := flag.Int("circuits", 3, "circuits per grid value (paper: 10)")
	trials := flag.Int("trials", 8, "LightSABRE trials (paper: 1000)")
	toolList := flag.String("tools", "", "comma-separated tool subset (default: all registered tools)")
	swapList := flag.String("swaps", "5,10,15,20", "comma-separated optimal swap counts (swap-metric families)")
	depthList := flag.String("depths", "8,16,24", "comma-separated optimal routed depths (depth-metric families)")
	seed := flag.Int64("seed", 1, "base random seed")
	csvPath := flag.String("csv", "", "also write the cells as CSV to this file")
	cacheDir := flag.String("cache-dir", "", "suite store root; empty evaluates through a temporary store removed on exit")
	suiteHash := flag.String("suite", "", "evaluate one stored suite by content hash (requires -cache-dir)")
	jsonlPath := flag.String("jsonl", "", "also stream per-instance result rows to this JSONL file")
	workers := flag.Int("workers", 1, "parallel evaluation workers")
	toolTimeout := flag.Duration("tool-timeout", 0, "per-(tool, instance) routing budget; a tool over budget becomes a failure row instead of hanging the run (0 = unlimited)")
	tracePath := flag.String("trace", "", "write a Chrome trace-event JSON of the run to this file (load in Perfetto or chrome://tracing)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	flag.Parse()

	// Profiling hooks for perf work on real eval traffic: both flags are
	// off by default and cost nothing when unset.
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			if werr := writeHeapProfile(*memProfile); err == nil {
				err = werr
			}
		}()
	}

	// Every run is traced: spans feed the wall-time summary printed at
	// the end, and -trace additionally exports them as Chrome trace-event
	// JSON. SIGINT/SIGTERM cancel the context: evaluation streams durable
	// rows as it goes, so an interrupted run over a persistent store
	// resumes where it stopped instead of losing the partial figure.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	tr := obs.New(0)
	ctx = obs.NewContext(ctx, tr)

	fam, err := family.Resolve(*famName)
	if err != nil {
		return err
	}
	gridFlag := *swapList
	if fam.Metric == family.Depth {
		gridFlag = *depthList
	}
	grid, err := family.ParseGrid(gridFlag, max(1, fam.MinOptimal))
	if err != nil {
		return err
	}

	if *suiteHash != "" && *cacheDir == "" {
		return fmt.Errorf("-suite requires -cache-dir")
	}
	root := *cacheDir
	if root == "" {
		if root, err = os.MkdirTemp("", "qubikos-eval-"); err != nil {
			return err
		}
		defer os.RemoveAll(root)
	}
	// The store certifies every instance it generates on the bytes it
	// writes; cache hits cost nothing.
	store, err := suite.Open(root, suite.StoreOptions{Verify: true})
	if err != nil {
		return err
	}
	// Unknown tool names are a hard error listing the registered tools —
	// never a silent skip that would quietly shrink the comparison.
	tools, err := harness.SelectTools(*toolList, *trials)
	if err != nil {
		return err
	}

	var figs []*harness.Figure
	if *suiteHash != "" {
		st, err := store.Lookup(*suiteHash)
		if err != nil {
			return err
		}
		fig, err := evalStored(ctx, store, st, tools, *trials, *seed, *workers, *toolTimeout, *jsonlPath)
		if err != nil {
			return err
		}
		figs = append(figs, fig)
		harness.RenderFigure(os.Stdout, fig)
	} else {
		suites := harness.PaperSuites(*circuits, *seed)
		if *archName != "all" {
			dev, err := arch.ByName(*archName)
			if err != nil {
				return err
			}
			kept := suites[:0]
			for _, s := range suites {
				if s.Device.Name() == dev.Name() {
					kept = append(kept, s)
				}
			}
			if len(kept) == 0 {
				return fmt.Errorf("device %q is not part of the Figure 4 suites", *archName)
			}
			suites = kept
		}
		for i := range suites {
			suites[i].Family = fam.ID
			suites[i].SwapCounts = grid
		}

		for _, cfg := range suites {
			t0 := time.Now()
			st, err := store.EnsureCtx(ctx, cfg.Manifest())
			if err != nil {
				return err
			}
			status := "generated"
			if st.Cached {
				status = "cache hit"
			}
			fmt.Printf("suite %s (%s)\n", st.Hash, status)
			fig, err := evalStored(ctx, store, st, tools, *trials, *seed, *workers, *toolTimeout, *jsonlPath)
			if err != nil {
				return err
			}
			figs = append(figs, fig)
			harness.RenderFigure(os.Stdout, fig)
			fmt.Printf("(%s in %v)\n\n", cfg.Device.Name(), time.Since(t0).Round(time.Millisecond))
		}
	}

	harness.RenderAbstract(os.Stdout, harness.AbstractGaps(figs))
	fmt.Println("\nBest-tool gap per device:")
	for _, d := range harness.DeviceGaps(figs) {
		fmt.Printf("  %-12s best=%-12s %9.2fx\n", d.Device, d.BestTool, d.BestRatio)
	}

	if rows := tr.Summary(); len(rows) > 0 {
		fmt.Println("\nWall-time by phase and tool:")
		obs.RenderSummary(os.Stdout, rows)
	}
	if *tracePath != "" {
		if err := obs.WriteChromeFile(tr, *tracePath, os.Stdout, os.Stderr); err != nil {
			return err
		}
	}

	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			return err
		}
		defer f.Close()
		harness.RenderFigureCSV(f, figs...)
		fmt.Println("wrote", *csvPath)
	}
	return nil
}

// writeHeapProfile snapshots the live heap into path.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC() // materialize the live heap before snapshotting
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// evalStored runs the resumable store-backed evaluation of one suite,
// optionally mirroring new rows to an external JSONL file. A failed
// mirror write cancels the evaluation and is returned as its error.
func evalStored(ctx context.Context, store *suite.Store, st *suite.Suite, tools []harness.ToolSpec, trials int, seed int64, workers int, toolTimeout time.Duration, jsonlPath string) (*harness.Figure, error) {
	opts := harness.StoredEvalOptions{
		Seed:        seed,
		Workers:     workers,
		Key:         harness.StoredEvalKey(tools, trials, seed),
		ToolTimeout: toolTimeout,
	}
	if jsonlPath != "" {
		mirror, err := suite.OpenEvalLog(jsonlPath)
		if err != nil {
			return nil, err
		}
		defer mirror.Close()
		var cancel context.CancelCauseFunc
		ctx, cancel = context.WithCancelCause(ctx)
		defer cancel(nil)
		opts.OnRow = func(r suite.Row) {
			if err := mirror.Append(r); err != nil {
				cancel(fmt.Errorf("writing %s: %w", jsonlPath, err))
			}
		}
	}
	fig, err := harness.RunStoredEvalCtx(ctx, store, st, tools, opts)
	if cause := context.Cause(ctx); err != nil && cause != nil {
		err = cause
	}
	return fig, err
}
