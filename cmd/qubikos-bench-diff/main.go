// Command qubikos-bench-diff compares fresh `go test -bench` output
// against the committed BENCH_routers.json snapshot and fails when a
// benchmark's ns/op regresses beyond a threshold (default 25%), so
// routing- and generation-path perf regressions gate merges instead of
// relying on eyeballs over CI logs.
//
// The tool reads standard testing-package benchmark lines, strips the
// trailing -GOMAXPROCS suffix, and matches names against the snapshot's
// "benchmarks" map. Benchmarks present in the input but absent from the
// snapshot are ignored (the smoke may run a superset); snapshot entries
// absent from the input are ignored too (the smoke may run a subset).
// Timings are compared against the snapshot's "after" numbers. Alloc
// counts are reported but advisory only: worker goroutines make them
// vary with GOMAXPROCS, and CI runs the smoke at more than one setting.
// Work counters are exact: a row's "work" map holds one run's values of
// the custom per-op metrics its benchmark reports (decisions/op and
// candidates/op for the routers, conflicts/op and propagations/op for
// the SAT certification), which read the same on any host and at any
// GOMAXPROCS setting. Every reading must match them exactly, so a change
// that does different work fails on any host, and the time threshold
// only has to catch a slower unit of work. A counter that a reading or
// a row lacks is skipped.
//
// The gated snapshot rows are recorded the way the CI smoke measures
// them (-benchtime=1x on one pinned seed, the slower of two GOMAXPROCS
// settings), but CI machines differ from the recording machine, so the
// threshold is a coarse tripwire for order-of-magnitude mistakes (an
// accidental O(n^2), a lost cache), not a microbenchmark judge. Loosen
// it with -threshold on noisy runners.
//
// Usage:
//
//	go test -run xxx -bench 'BenchmarkQmapRoute|BenchmarkMlqlsRoute' -benchtime=1x . | qubikos-bench-diff
//	qubikos-bench-diff -snapshot BENCH_routers.json -input bench.txt -threshold 0.5
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

type stats struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

type entry struct {
	After stats              `json:"after"`
	Work  map[string]float64 `json:"work"`
}

type snapshot struct {
	Benchmarks map[string]entry `json:"benchmarks"`
}

// measurement is one parsed benchmark result line.
type measurement struct {
	name   string // with the -GOMAXPROCS suffix stripped
	ns     float64
	allocs float64
	hasAll bool                 // allocs/op was present (-benchmem)
	work   map[string][]float64 // every reading of each custom per-op metric
}

// parseBenchLines extracts benchmark measurements from `go test -bench`
// output. Non-benchmark lines are skipped. When the same benchmark
// appears more than once (e.g. the smoke runs at two GOMAXPROCS
// settings), the slowest reading's time and allocs win, since the gate
// must hold at both, and work keeps every reading's counters.
func parseBenchLines(r io.Reader) ([]measurement, error) {
	best := map[string]measurement{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") || f[3] != "ns/op" {
			continue
		}
		ns, err := strconv.ParseFloat(f[2], 64)
		if err != nil {
			continue
		}
		m := measurement{name: stripProcs(f[0]), ns: ns, work: map[string][]float64{}}
		for i := 4; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			switch unit := f[i+1]; {
			case err != nil || unit == "B/op":
			case unit == "allocs/op":
				m.allocs, m.hasAll = v, true
			case strings.HasSuffix(unit, "/op"):
				m.work[unit] = []float64{v}
			}
		}
		if prev, ok := best[m.name]; ok {
			for unit, vs := range prev.work {
				m.work[unit] = append(vs, m.work[unit]...)
			}
			if prev.ns >= m.ns {
				prev.work = m.work
				m = prev
			}
		}
		best[m.name] = m
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	out := make([]measurement, 0, len(best))
	for _, m := range best {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out, nil
}

// stripProcs removes the trailing -N GOMAXPROCS suffix the testing
// package appends to benchmark names ("BenchmarkFoo/bar-8" -> ".../bar").
func stripProcs(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

func run(snapPath string, input io.Reader, threshold float64, w io.Writer) (failed bool, err error) {
	raw, err := os.ReadFile(snapPath)
	if err != nil {
		return false, err
	}
	var snap snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		return false, fmt.Errorf("%s: %w", snapPath, err)
	}
	fresh, err := parseBenchLines(input)
	if err != nil {
		return false, err
	}
	compared := 0
	for _, m := range fresh {
		ref, ok := snap.Benchmarks[m.name]
		if !ok || ref.After.NsPerOp <= 0 {
			continue
		}
		compared++
		ratio := m.ns / ref.After.NsPerOp
		verdict := "ok"
		if ratio > 1+threshold {
			verdict = "REGRESSION"
			failed = true
		}
		fmt.Fprintf(w, "%-36s %14.0f ns/op  snapshot %14.0f  ratio %.2fx  %s\n",
			m.name, m.ns, ref.After.NsPerOp, ratio, verdict)
		if m.hasAll && ref.After.AllocsPerOp > 0 && m.allocs > ref.After.AllocsPerOp*(1+threshold) {
			fmt.Fprintf(w, "%-36s %14.0f allocs/op vs snapshot %.0f (advisory)\n",
				m.name, m.allocs, ref.After.AllocsPerOp)
		}
		units := make([]string, 0, len(ref.Work))
		for unit := range ref.Work {
			units = append(units, unit)
		}
		sort.Strings(units)
		for _, unit := range units {
			for _, got := range m.work[unit] {
				verdict := "exact"
				if got != ref.Work[unit] {
					verdict = "WORK CHANGED"
					failed = true
				}
				fmt.Fprintf(w, "%-36s %14.0f %-16s snapshot %14.0f  %s\n", m.name, got, unit, ref.Work[unit], verdict)
			}
		}
	}
	if compared == 0 {
		return true, fmt.Errorf("no benchmark in the input matched a snapshot entry")
	}
	return failed, nil
}

func main() {
	snapPath := flag.String("snapshot", "BENCH_routers.json", "committed benchmark snapshot to diff against")
	inPath := flag.String("input", "-", "benchmark output file ('-' reads stdin)")
	threshold := flag.Float64("threshold", 0.25, "allowed fractional ns/op regression before failing")
	flag.Parse()

	in := io.Reader(os.Stdin)
	if *inPath != "-" {
		f, err := os.Open(*inPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "qubikos-bench-diff:", err)
			os.Exit(2)
		}
		defer f.Close()
		in = f
	}
	failed, err := run(*snapPath, in, *threshold, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "qubikos-bench-diff:", err)
		os.Exit(2)
	}
	if failed {
		fmt.Fprintf(os.Stderr, "qubikos-bench-diff: ns/op regression beyond %.0f%% or changed work counters vs %s\n",
			*threshold*100, *snapPath)
		os.Exit(1)
	}
}
