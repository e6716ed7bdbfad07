package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// replayResult is what one pass over a workload's fixed replay list
// observed.
type replayResult struct {
	mu     sync.Mutex
	ops    int
	failed int
	errs   []string
	wall   time.Duration
	// workers is how many ops run at once; layer time is accounted
	// against wall × workers.
	workers int
	// units is what per-layer values are normalised by: sweeps, certs,
	// requests or rounds.
	units float64
	// sums accumulate per-layer values normalised by units; fixed
	// values are reported as they are.
	sums  map[string]float64
	fixed map[string]float64
}

func newReplayResult(workers int) *replayResult {
	return &replayResult{workers: workers, sums: map[string]float64{}, fixed: map[string]float64{}}
}

// op counts one replayed op; a non-nil err fails it.
func (r *replayResult) op(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ops++
	if err != nil {
		r.failed++
		if len(r.errs) < 5 {
			r.errs = append(r.errs, err.Error())
		}
	}
}

// absorb counts the ops of an HTTP pass that ran beside the replay.
func (r *replayResult) absorb(l *opLog) {
	l.mu.Lock()
	defer l.mu.Unlock()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ops += len(l.lat)
	r.failed += l.failed
	for _, e := range l.errs {
		if len(r.errs) < 5 {
			r.errs = append(r.errs, "http: "+e)
		}
	}
}

// add accumulates a per-layer value that is reported per unit.
func (r *replayResult) add(name string, v float64) {
	r.mu.Lock()
	r.sums[name] += v
	r.mu.Unlock()
}

// set records a per-layer value reported as is.
func (r *replayResult) set(name string, v float64) {
	r.mu.Lock()
	r.fixed[name] = v
	r.mu.Unlock()
}

// perLayerNames lists every per-layer metric in the order
// BENCHMARK.json declares them. A traced run reports all of them; a
// layer its workload does not exercise reads 0.
func perLayerNames() []string {
	var out []string
	out = append(out, fig4Layers()...)
	out = append(out, verifyLayers()...)
	out = append(out, routeLayers()...)
	out = append(out, storeLayers()...)
	out = append(out, "accounted_frac", "trace_overhead")
	seen := map[string]bool{}
	uniq := out[:0]
	for _, n := range out {
		if !seen[n] {
			seen[n] = true
			uniq = append(uniq, n)
		}
	}
	return uniq
}

// layerUnit is the unit of a per-layer metric, read off its name.
func layerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_ms"), strings.Contains(name, "_ms."):
		return "ms"
	case strings.HasSuffix(name, "_frac"), name == "trace_overhead":
		return "ratio"
	}
	return "count"
}

// benchCat is the span category of the benchmark's own layer spans;
// checkCat covers its answer checks where they cost more than noise.
const (
	benchCat = "bench"
	checkCat = "check"
)

// overheadPairs is how many untraced/traced pass pairs a traced run
// makes; trace_overhead compares their summed walls.
const overheadPairs = 2

// runTraced sets the workload up once, replays its op list to warm up,
// then untraced and traced in turn, and reports every per-layer metric. The traced
// pass's spans give per-layer times: a benchmark span named "x.y"
// fills x.y_ms with its total time per unit. Program spans recorded
// inside those calls (store/*, portfolio/*, eval/*, verify/*) land in
// the same trace and summary.
func runTraced(ctx context.Context, w workload, root string, seed int64, out io.Writer) (*result, error) {
	sess, err := w.setup(ctx, filepath.Join(root, "setup"), seed)
	if err != nil {
		return nil, fmt.Errorf("%s setup: %w", w.name, err)
	}
	defer sess.close()

	// The first pass over a fresh session runs slower than later ones,
	// so it only warms up. Untraced and traced passes then alternate,
	// so drift in the host's speed falls on both alike; per-layer
	// metrics come from the last traced pass.
	warm, err := sess.replay(ctx)
	if err != nil {
		return nil, fmt.Errorf("warm-up replay: %w", err)
	}
	var plainWall, tracedWall time.Duration
	var tr *obs.Trace
	var traced *replayResult
	attempted, failed, errs := warm.ops, warm.failed, warm.errs
	for i := 0; i < overheadPairs; i++ {
		// The trace's preallocated span buffer is live through the
		// untraced pass too. Without it the untraced passes had the
		// smaller heap, so the garbage collector ran more often in them
		// and traced passes read up to 40% faster.
		tr = obs.New(obs.DefaultCapacity)
		plain, err := sess.replay(ctx)
		if err != nil {
			return nil, fmt.Errorf("untraced replay: %w", err)
		}
		if traced, err = sess.replay(obs.NewContext(ctx, tr)); err != nil {
			return nil, fmt.Errorf("traced replay: %w", err)
		}
		if n := tr.Dropped(); n > 0 {
			return nil, fmt.Errorf("trace dropped %d spans: raise the capacity or shorten the replay", n)
		}
		plainWall += plain.wall
		tracedWall += traced.wall
		for _, r := range []*replayResult{plain, traced} {
			attempted += r.ops
			failed += r.failed
			errs = append(errs, r.errs...)
		}
	}

	vals := map[string]float64{}
	for _, n := range perLayerNames() {
		vals[n] = 0
	}
	units := traced.units
	if units <= 0 {
		units = 1
	}
	for k, v := range traced.sums {
		vals[k] = v / units
	}
	var accounted, checking time.Duration
	rows := tr.Summary()
	for _, row := range rows {
		switch {
		case row.Cat == benchCat:
			accounted += row.Total
			vals[row.Name+"_ms"] = ms(row.Total) / units
		case row.Cat == checkCat:
			checking += row.Total
		case row.Cat == "store" && (row.Name == "generate" || row.Name == "commit"):
			vals["store."+row.Name+"_ms"] = ms(row.Total) / units
		case row.Cat == "portfolio" && row.Name == "racer" && row.Tool != "":
			vals["portfolio.racer_ms."+row.Tool] = ms(row.Total) / units
		}
	}
	for k, v := range traced.fixed {
		vals[k] = v
	}
	// The benchmark's own answer checks are neither layer time nor
	// unexplained time, so they leave the denominator.
	busy := traced.wall.Seconds()*float64(traced.workers) - checking.Seconds()
	vals["accounted_frac"] = accounted.Seconds() / busy
	vals["trace_overhead"] = tracedWall.Seconds()/plainWall.Seconds() - 1

	if err := writeTrace(tr, rows, w.name, seed); err != nil {
		return nil, err
	}
	res := &result{
		Correct:   failed == 0,
		Attempted: int64(attempted),
		Failed:    int64(failed),
		Metrics:   map[string]metric{},
	}
	for _, e := range errs {
		fmt.Fprintln(out, "failed op:", e)
	}
	names := make([]string, 0, len(vals))
	for n := range vals {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		res.Metrics[n] = metric{vals[n], layerUnit(n)}
	}
	fmt.Fprintf(out, "%s traced replay: %d ops, %d untraced/traced pass pairs: untraced %.3fs, traced %.3fs; last trace %d spans\n",
		w.name, traced.ops, overheadPairs, plainWall.Seconds(), tracedWall.Seconds(), tr.Len())
	for _, n := range perLayerNames() {
		if vals[n] != 0 {
			fmt.Fprintf(out, "  %-32s %14.4f %s\n", n, vals[n], layerUnit(n))
		}
	}
	return res, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// writeTrace writes the Chrome trace and the span summary under
// .bench_build/out.
func writeTrace(tr *obs.Trace, rows []obs.SummaryRow, name string, seed int64) error {
	dir := filepath.Join(".bench_build", "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", name, seed))
	f, err := os.Create(base + ".trace.json")
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := tr.WriteChrome(bw); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	var sb strings.Builder
	obs.RenderSummary(&sb, rows)
	return os.WriteFile(base+".summary.txt", []byte(sb.String()), 0o644)
}
