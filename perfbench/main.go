// Command perfbench is the repository's end-to-end benchmark. One
// process runs one named workload closed-loop for a fixed time, checks
// every operation's output against a known answer, and prints its
// metrics as one JSON object on the last line of standard output.
//
//	go run . --workload fig4-sweep --seed 1 --seconds 25 --trace 0
//
// With --trace 1 it instead replays a fixed, seeded list of the
// workload's operations through each layer's public functions (to warm
// up, untraced, then under an obs trace) and reports per-layer metrics;
// the Chrome trace and a span summary are written under
// .bench_build/out. README.md in this directory describes the
// workloads, the metrics and the noise measured on the reference host.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// A run sets its workload up from scratch at least minSetups times and
// until minSetupTime has passed (at most maxSetups times); setup_s is
// the median. Only the last set-up is measured.
const (
	minSetups    = 3
	maxSetups    = 31
	minSetupTime = time.Second
)

// familyStride splits a seed into an input family and the rest. Every
// input (suites, instances, request and round order) comes from the
// family seed / familyStride, so every seed below it measures the same
// work and runs compare; the rest of the seed only numbers the store
// writes. A held-out seed such as familyStride+1 draws different
// inputs.
const familyStride = 1_000_000

func inputFamily(seed int64) int64 {
	if seed < 0 {
		seed = -seed
	}
	return seed / familyStride
}

// workload is one named traffic mix; BENCHMARK.json and README.md say
// why each was chosen.
type workload struct {
	name string
	// setup builds everything a run needs under dir: inputs generated
	// from seed, stores opened, servers listening, one warm-up op per
	// op class.
	setup func(ctx context.Context, dir string, seed int64) (session, error)
}

// session is one set-up workload.
type session interface {
	// measure runs the workload closed-loop, untraced, for about d, in
	// segments between calibrations of m.
	measure(ctx context.Context, d time.Duration, m *speedometer) (*sample, error)
	// replay runs the workload's fixed replay list through each layer's
	// public functions, recording spans when ctx carries a trace.
	replay(ctx context.Context) (*replayResult, error)
	close() error
}

var workloads = []workload{fig4Workload, verifyWorkload, routeWorkload, storeWorkload}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// endToEndUnits are the end-to-end metrics every untraced run reports,
// with their units. Each workload fills each one; README.md says what
// an op and a unit of throughput are per workload.
var endToEndUnits = map[string]string{
	"setup_s":     "s",
	"peak_rss_mb": "MB",
	"throughput":  "1/s",
	"op_p50_ms":   "ms",
	"op_tail_ms":  "ms",
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed on the last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: fig4-sweep, verify-cert, serve-route or serve-store")
	seed := flag.Int64("seed", 1, "workload seed; every input is derived from it")
	seconds := flag.Int("seconds", 25, "measured duration of an untraced run")
	trace := flag.Int("trace", 0, "1 replays the seeded op list traced and reports per-layer metrics")
	flag.Parse()
	if err := run(*name, *seed, time.Duration(*seconds)*time.Second, *trace == 1, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, d time.Duration, traced bool, out io.Writer) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	root, err := filepath.Abs(filepath.Join(".bench_build", "work", fmt.Sprintf("%s-%d", name, os.Getpid())))
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)
	ctx := context.Background()
	host := describeHost(filepath.Dir(root))

	var res *result
	if traced {
		res, err = runTraced(ctx, w, root, seed, out)
	} else {
		res, err = runMeasured(ctx, w, root, seed, d, out)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "host: %s\n", host)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s\n", line)
	return nil
}

// setupMany sets the workload up repeatedly, each time in a fresh
// directory, and keeps the last session. It returns the median set-up
// time in seconds, each scaled by the host slowdown calibrated on
// either side of it, and the median raw time.
func setupMany(ctx context.Context, w workload, root string, seed int64, m *speedometer) (session, float64, float64, error) {
	var times, raw []float64
	var sess session
	before := m.mark()
	t0 := time.Now()
	for i := 0; i < maxSetups && (i < minSetups || time.Since(t0) < minSetupTime); i++ {
		if sess != nil {
			if err := sess.close(); err != nil {
				return nil, 0, 0, err
			}
		}
		dir := filepath.Join(root, fmt.Sprintf("setup%d", i))
		t0 := time.Now()
		s, err := w.setup(ctx, dir, seed)
		if err != nil {
			return nil, 0, 0, fmt.Errorf("%s setup: %w", w.name, err)
		}
		d := time.Since(t0).Seconds()
		after := m.mark()
		raw = append(raw, d)
		times = append(times, d/((before+after)/2))
		before = after
		sess = s
	}
	return sess, median(times), median(raw), nil
}

func runMeasured(ctx context.Context, w workload, root string, seed int64, d time.Duration, out io.Writer) (*result, error) {
	m := newSpeedometer()
	sess, setupS, rawSetupS, err := setupMany(ctx, w, root, seed, m)
	if err != nil {
		return nil, err
	}
	defer sess.close()
	s, err := sess.measure(ctx, d, m)
	if err != nil {
		return nil, err
	}
	if err := s.check(); err != nil {
		return nil, err
	}
	for _, line := range s.notes {
		fmt.Fprintln(out, line)
	}
	fmt.Fprintf(out, "%s per window: %.4g\n", s.unitName, s.rates)
	for _, n := range s.named {
		fmt.Fprintf(out, "%-22s %12.4f %-5s %s\n", n.name, n.value, n.unit, n.note)
	}
	p50, _ := s.percentile(50)
	tail, _ := s.percentile(s.tailPct)
	res := &result{
		Correct:   s.failed == 0,
		Attempted: int64(s.ops),
		Failed:    int64(s.failed),
		Metrics:   map[string]metric{},
	}
	for name, v := range map[string]float64{
		"setup_s":     setupS,
		"peak_rss_mb": peakRSSMB(),
		"throughput":  s.throughput(),
		"op_p50_ms":   p50,
		"op_tail_ms":  tail,
	} {
		res.Metrics[name] = metric{v, endToEndUnits[name]}
	}
	fmt.Fprintf(out, "%s: %d ops (%d failed) in %.2fs, %.1f %s; op_p50 %.3f ms, op_p%g %.3f ms (n=%d)\n",
		w.name, s.ops, s.failed, s.wall.Seconds(), s.units, s.unitName, p50, s.tailPct, tail, len(s.lat))
	rawP50, _, _ := nearestRank(s.rawLat, 50)
	rawTail, _, _ := nearestRank(s.rawLat, s.tailPct)
	fmt.Fprintf(out, "raw: host slowdown median %.3f over %d calibrations; unscaled throughput %.4g, op_p50 %.4g ms, op_tail %.4g ms, setup %.4g s\n",
		median(m.marks), len(m.marks), median(s.rawRates), rawP50, rawTail, rawSetupS)
	return res, nil
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
