package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/arch"
	"repro/internal/family"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/router"
	"repro/internal/suite"
)

// fig4Trials is LightSABRE's trial count in the sweep (the paper uses
// 1000). With 16 a sweep takes 1.5 to 2 s on the reference host, so a
// 25 s run holds twelve to fifteen; LightSABRE's Eagle-127 cells
// cost nearly the same at 1000 gates as at 3000, so only fewer trials
// shortened the sweep that much.
const fig4Trials = 16

// fig4Sets is how many input sets expected_fig4.json pins: set 0, which
// every ordinary seed sweeps, and set 1 for the held-out seed. A run
// sweeps set inputFamily(seed) mod fig4Sets.
const fig4Sets = 2

// fig4Gates are the suites' two-qubit gate counts: Sycamore-54 and
// Rochester-53 at the first, Eagle-127 at the second.
var fig4Gates = [2]int{500, 1000}

// fig4MinSweeps is the fewest sweeps a run makes, so that the p75 row
// time has 18 rows beyond it; throughput is the median sweep's rate.
const fig4MinSweeps = 3

// fig4EvalSeed feeds every tool constructor, as StoredEvalOptions.Seed.
const fig4EvalSeed = 7

// fig4Workers is the sweep's evaluation pool size. With one worker the
// spare CPU is lent to qmap's expansion gang and LightSABRE's trial
// pool through the shared budget, and which of them gets it varied
// from process to process: on the reference host their per-run cell
// times swung by half, and qmap at two workers was slower than serial.
// Two cells at a time leave no slot to lend, so every router runs
// serially and both CPUs stay busy.
const fig4Workers = 2

var fig4Workload = workload{
	name: "fig4-sweep",
	setup: func(ctx context.Context, dir string, seed int64) (session, error) {
		return setupFig4(ctx, dir, seed)
	},
}

// fig4Manifests returns the sweep's three suites for input set k:
// Sycamore-54, Rochester-53 and Eagle-127 at fig4Gates, optimal SWAP
// counts {5, 20}, one circuit each.
func fig4Manifests(k int) []suite.Manifest {
	mk := func(dev *arch.Device, gates int) suite.Manifest {
		return harness.SuiteConfig{
			Device:              dev,
			SwapCounts:          []int{5, 20},
			CircuitsPerCount:    1,
			TargetTwoQubitGates: gates,
			Seed:                int64(1000 + k),
		}.Manifest()
	}
	return []suite.Manifest{
		mk(arch.GoogleSycamore54(), fig4Gates[0]),
		mk(arch.IBMRochester53(), fig4Gates[0]),
		mk(arch.IBMEagle127(), fig4Gates[1]),
	}
}

func fig4Set(seed int64) int { return int(inputFamily(seed) % fig4Sets) }

// expectedSwaps maps suite hash -> "tool/instance" -> routed SWAPs.
type expectedSwaps map[string]map[string]int

func loadExpected() (expectedSwaps, error) {
	raw, err := os.ReadFile(expectedPath())
	if err != nil {
		return nil, err
	}
	var e expectedSwaps
	if err := json.Unmarshal(raw, &e); err != nil {
		return nil, fmt.Errorf("%s: %w", expectedPath(), err)
	}
	return e, nil
}

// expectedPath locates expected_fig4.json beside the sources: the
// benchmark runs from the repository root, its tests from this
// directory.
func expectedPath() string {
	if _, err := os.Stat("expected_fig4.json"); err == nil {
		return "expected_fig4.json"
	}
	return filepath.Join("perfbench", "expected_fig4.json")
}

type fig4Session struct {
	dir      string
	store    *suite.Store
	suites   []*suite.Suite
	tools    []harness.ToolSpec
	expected map[string]int // "hash/tool/instance" -> swaps
	nOps     int
}

func setupFig4(ctx context.Context, dir string, seed int64) (*fig4Session, error) {
	exp, err := loadExpected()
	if err != nil {
		return nil, err
	}
	store, err := suite.Open(filepath.Join(dir, "store"), suite.StoreOptions{})
	if err != nil {
		return nil, err
	}
	s := &fig4Session{dir: dir, store: store, tools: harness.DefaultTools(fig4Trials), expected: map[string]int{}}
	for _, m := range fig4Manifests(fig4Set(seed)) {
		st, err := store.EnsureCtx(ctx, m)
		if err != nil {
			return nil, err
		}
		want := exp[st.Hash]
		if len(want) != len(s.tools)*len(st.Instances) {
			return nil, fmt.Errorf("expected_fig4.json has %d of %d answers for suite %s", len(want), len(s.tools)*len(st.Instances), st.Hash)
		}
		for k, v := range want {
			s.expected[st.Hash+"/"+k] = v
		}
		s.suites = append(s.suites, st)
	}
	// Warm-up: one cell per tool on the smallest instance.
	st := s.suites[0]
	li, err := store.LoadInstance(st.Hash, st.Instances[0])
	if err != nil {
		return nil, err
	}
	p, err := router.Prepare(li.Circuit, li.Device)
	if err != nil {
		return nil, err
	}
	for _, t := range s.tools {
		if _, err := router.RoutePreparedWithContext(ctx, t.Make(fig4EvalSeed+7919), p); err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", t.Name, err)
		}
	}
	return s, nil
}

func (s *fig4Session) close() error { return nil }

// cells is the number of (tool, instance) cells in one sweep.
func (s *fig4Session) cells() int {
	n := 0
	for _, st := range s.suites {
		n += len(s.tools) * len(st.Instances)
	}
	return n
}

// checkRow is the per-cell oracle: the row carries no error, does not
// beat the proven optimum, and routes exactly the pinned SWAP count.
func (s *fig4Session) checkRow(r suite.Row) error {
	if r.Error != "" {
		return fmt.Errorf("%s/%s: %s", r.Tool, r.Instance, r.Error)
	}
	if r.Swaps < r.Optimal {
		return fmt.Errorf("%s/%s: %d swaps beats the proven optimum %d", r.Tool, r.Instance, r.Swaps, r.Optimal)
	}
	key := r.Suite + "/" + r.Tool + "/" + r.Instance
	want, ok := s.expected[key]
	if !ok {
		return fmt.Errorf("no expected answer for %s", key)
	}
	if r.Swaps != want {
		return fmt.Errorf("%s: routed %d swaps, expected %d", key, r.Swaps, want)
	}
	return nil
}

// sweep runs one Figure-4 sweep: every tool over every suite through
// harness.RunStoredEvalCtx, each suite streaming into a fresh eval log
// (a reused log would resume and make the op free). Each streamed row
// is one op, checked, and timed from the start of the sweep to its
// arrival: the wait a client streaming the sweep sees for that row.
// Those times add up whole cells, so they sit in the spread of sweep
// times rather than in one short cell's jitter. busy accumulates the
// harness's own per-cell times by tool.
func (s *fig4Session) sweep(ctx context.Context, log *opLog, busy *toolTimes) error {
	s.nOps++
	t0 := time.Now()
	for _, st := range s.suites {
		path := filepath.Join(s.dir, "evals", fmt.Sprintf("op%d-%s.jsonl", s.nOps, st.Hash[:12]))
		var rows atomic.Int64
		_, err := harness.RunStoredEvalCtx(ctx, s.store, st, s.tools, harness.StoredEvalOptions{
			Seed:    fig4EvalSeed,
			Workers: fig4Workers,
			LogPath: path,
			OnRow: func(r suite.Row) {
				log.record("", time.Since(t0), 1, s.checkRow(r))
				busy.add(r.Tool, float64(r.ElapsedMS)/1000)
				rows.Add(1)
			},
		})
		if err != nil {
			return err
		}
		if want := int64(len(s.tools) * len(st.Instances)); rows.Load() != want {
			return fmt.Errorf("suite %s produced %d rows, want %d", st.Hash[:12], rows.Load(), want)
		}
	}
	return nil
}

// measure runs fig4MinSweeps whole sweeps, and more while the next one
// is expected to end within d. Each sweep is one segment.
func (s *fig4Session) measure(ctx context.Context, d time.Duration, m *speedometer) (*sample, error) {
	log, busy := &opLog{}, &toolTimes{}
	segs, err := m.segments(d, fig4MinSweeps, func() error { return s.sweep(ctx, log, busy) })
	if err != nil {
		return nil, err
	}
	smp := log.sample(0, "cells", 75, segs)
	smp.named = []namedValue{{"cells_per_s", smp.throughput(), "1/s",
		fmt.Sprintf("median of %d sweeps of %d cells", len(segs), s.cells())}}
	for _, t := range s.tools {
		smp.named = append(smp.named, namedValue{t.Name + "_s", busy.s[t.Name], "s", "cell time, all sweeps, unscaled"})
	}
	return smp, nil
}

// toolTimes sums seconds by tool across concurrent workers.
type toolTimes struct {
	mu sync.Mutex
	s  map[string]float64
}

func (t *toolTimes) add(tool string, sec float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.s == nil {
		t.s = map[string]float64{}
	}
	t.s[tool] += sec
}

// fig4Tool maps a harness tool name to its layer prefix.
func fig4Tool(name string) string {
	switch name {
	case "lightsabre":
		return "sabre"
	case "ml-qls":
		return "mlqls"
	}
	return name
}

// replay runs one sweep through the layers RunStoredEvalCtx composes,
// in its order: load and prepare each suite's instances, then route
// every (tool, instance) on fig4Workers workers with the same seed and
// worker budget, validate, and append the row to a fresh eval log.
func (s *fig4Session) replay(ctx context.Context) (*replayResult, error) {
	rr := newReplayResult(fig4Workers)
	t0 := time.Now()
	s.nOps++
	budget := pool.NewBudget(max(runtime.GOMAXPROCS(0)-fig4Workers, 0))
	for _, st := range s.suites {
		if err := s.replaySuite(ctx, st, budget, rr); err != nil {
			return nil, err
		}
	}
	rr.wall = time.Since(t0)
	rr.units = 1 // per-layer values are per sweep
	return rr, nil
}

func (s *fig4Session) replaySuite(ctx context.Context, st *suite.Suite, budget *pool.Budget, rr *replayResult) error {
	elog, err := suite.OpenEvalLog(filepath.Join(s.dir, "evals", fmt.Sprintf("replay%d-%s.jsonl", s.nOps, st.Hash[:12])))
	if err != nil {
		return err
	}
	defer elog.Close()
	type item struct {
		li   *family.Loaded
		prep *router.Prepared
	}
	items := make([]item, len(st.Instances))
	for i, ref := range st.Instances {
		sp, _ := obs.Begin(ctx, benchCat, "suite.load")
		li, err := s.store.LoadInstance(st.Hash, ref)
		sp.End()
		if err != nil {
			return err
		}
		sp, _ = obs.Begin(ctx, benchCat, "router.prepare")
		p, err := router.Prepare(li.Circuit, li.Device)
		if err == nil {
			// Force the lazy views here so their builds do not land in
			// the first router's span.
			p.DAG()
			p.Layers()
			p.ReversedDAG()
		}
		sp.End()
		if err != nil {
			return err
		}
		items[i] = item{li, p}
	}
	n := len(st.Instances)
	err = pool.ParallelForCtx(ctx, len(s.tools)*n, fig4Workers, func(j int) error {
		t, it, ref := s.tools[j/n], items[j%n], st.Instances[j%n]
		layer := fig4Tool(t.Name)
		t1 := time.Now()
		r := t.Make(fig4EvalSeed + 7919)
		if br, ok := r.(router.BudgetedRouter); ok {
			br.SetWorkerBudget(budget)
		}
		sp, rctx := obs.Begin(ctx, benchCat, layer+".route")
		res, err := router.RoutePreparedWithContext(rctx, r, it.prep)
		sp.End()
		if ins, ok := r.(router.Instrumented); ok {
			c := ins.Counters()
			rr.add(layer+".decisions", float64(c.Decisions))
			rr.add(layer+".candidates", float64(c.Candidates))
			rr.add(layer+".restarts", float64(c.Restarts))
		}
		metric := st.Manifest.Metric()
		row := suite.Row{Suite: st.Hash, Instance: ref.Base, Metric: string(metric),
			Optimal: it.li.Meta.Optimal(), Tool: t.Name}
		if err != nil {
			row.Error = err.Error()
		} else {
			sp, _ = obs.Begin(ctx, benchCat, "router.validate")
			verr := router.Validate(it.li.Circuit, it.li.Device, res)
			sp.End()
			if verr != nil {
				row.Error = "invalid: " + verr.Error()
			}
			row.Swaps = res.SwapCount
			row.Depth = res.RoutedDepth()
			row.Ratio = metric.Ratio(row.Swaps, row.Optimal)
		}
		row.ElapsedMS = time.Since(t1).Milliseconds()
		sp, _ = obs.Begin(ctx, benchCat, "suite.append")
		err = elog.Append(row)
		sp.End()
		if err != nil {
			return err
		}
		rr.op(s.checkRow(row))
		return nil
	})
	if err != nil {
		return err
	}
	return elog.Close()
}

// fig4Layers are the per-layer metrics this workload fills.
func fig4Layers() []string {
	var out []string
	for _, t := range []string{"qmap", "sabre", "mlqls", "tket"} {
		out = append(out, t+".route_ms", t+".decisions", t+".candidates", t+".restarts")
	}
	return append(out, "router.prepare_ms", "router.validate_ms", "suite.load_ms", "suite.append_ms")
}
