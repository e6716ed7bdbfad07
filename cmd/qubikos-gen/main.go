// Command qubikos-gen generates benchmark circuits from any registered
// benchmark family: QUBIKOS circuits with provably optimal SWAP counts
// (the default), or QUEKO-style circuits with provably optimal routed
// depth (-family queko-depth). It has two modes:
//
// Loose-file mode (default) writes each instance as OpenQASM 2.0 plus a
// JSON metadata sidecar (family, known optimum, initial mapping, swap
// schedule) into -out, exactly as earlier releases did.
//
// Suite mode (-suite) writes a whole suite — the metric grid (-swaps or
// -depths) times -count instances — into the content-addressed store at
// -cache-dir and prints the suite's content hash. Re-running with the
// same parameters finds the stored suite and generates nothing;
// qubikos-eval, qubikos-verify and qubikos-serve consume the same store.
//
// Usage:
//
//	qubikos-gen -arch aspen4 -swaps 5 -gates 300 -count 10 -seed 1 -out bench/
//	qubikos-gen -arch grid3x3 -swaps 2 -max-gates 30 -prefer-high-degree -verify
//	qubikos-gen -suite -cache-dir cache -arch aspen4 -swaps 5,10,15,20 -gates 300 -count 10 -seed 1
//	qubikos-gen -suite -cache-dir cache -arch aspen4 -family queko-depth -depths 10,20 -gates 300 -count 10
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro/internal/arch"
	"repro/internal/family"
	"repro/internal/suite"
)

func main() {
	archName := flag.String("arch", "aspen4", "device: aspen4, sycamore54, rochester53, eagle127, grid3x3")
	famName := flag.String("family", "qubikos", "benchmark family: qubikos (optimal swaps) or queko-depth (optimal depth)")
	swaps := flag.String("swaps", "5", "provably optimal SWAP count, or a comma-separated grid (swap-metric families)")
	depths := flag.String("depths", "8", "provably optimal routed depth, or a comma-separated grid (depth-metric families)")
	gates := flag.Int("gates", 300, "target two-qubit gate total (padding)")
	maxGates := flag.Int("max-gates", 0, "hard cap on two-qubit gates (0 = none)")
	oneQ := flag.Int("oneq", 0, "single-qubit gates to sprinkle in")
	count := flag.Int("count", 1, "number of circuits per grid value")
	seed := flag.Int64("seed", 1, "base random seed")
	out := flag.String("out", ".", "output directory (loose-file mode)")
	preferHigh := flag.Bool("prefer-high-degree", false, "bias qubikos sections toward max-degree qubits (smaller backbones)")
	verify := flag.Bool("verify", true, "read each written instance back and run its family's certificate")
	suiteMode := flag.Bool("suite", false, "write a content-addressed suite into -cache-dir instead of loose files")
	cacheDir := flag.String("cache-dir", "qubikos-cache", "suite store root (suite mode)")
	workers := flag.Int("workers", 0, "parallel generation workers in suite mode (0 = all CPUs)")
	flag.Parse()

	fam, err := family.Resolve(*famName)
	if err != nil {
		fatal(err)
	}
	gridFlag := *swaps
	if fam.Metric == family.Depth {
		gridFlag = *depths
	}
	grid, err := family.ParseGrid(gridFlag, fam.MinOptimal)
	if err != nil {
		fatal(err)
	}

	opts := family.Options{
		TargetTwoQubitGates: *gates,
		MaxTwoQubitGates:    *maxGates,
		SingleQubitGates:    *oneQ,
		PreferHighDegree:    *preferHigh,
		Seed:                *seed,
	}

	if *suiteMode {
		runSuiteMode(*cacheDir, fam, *archName, grid, *count, opts, *workers, *verify)
		return
	}

	dev, err := arch.ByName(*archName)
	if err != nil {
		fatal(err)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}

	for _, n := range grid {
		for i := 0; i < *count; i++ {
			instOpts := opts
			instOpts.Optimal = n
			instOpts.Seed = *seed + int64(i)
			inst, err := fam.Generate(dev, instOpts)
			if err != nil {
				fatal(err)
			}
			prefix := "qubikos"
			if fam.Metric == family.Depth {
				prefix = "queko"
			}
			base := fmt.Sprintf("%s_%s_%s%d_g%d_i%03d",
				prefix, dev.Name(), metricTag(fam.Metric), n, inst.Circuit.TwoQubitGateCount(), i)
			if _, err := family.WriteInstance(*out, base, inst); err != nil {
				fatal(err)
			}
			if *verify {
				li, err := family.ReadInstanceWithSolution(*out, base)
				if err == nil {
					err = li.Certify()
				}
				if err != nil {
					fatal(fmt.Errorf("instance %d failed verification: %w", i, err))
				}
			}
			fmt.Printf("wrote %s: %d qubits, %d gates (%d two-qubit), optimal %s %d\n",
				base, inst.Circuit.NumQubits, inst.Circuit.NumGates(),
				inst.Circuit.TwoQubitGateCount(), fam.Metric, inst.Optimal)
		}
	}
}

func metricTag(m family.Metric) string {
	if m == family.Depth {
		return "d"
	}
	return "s"
}

func runSuiteMode(cacheDir string, fam *family.Family, archName string, grid []int, perCount int, opts family.Options, workers int, verify bool) {
	store, err := suite.Open(cacheDir, suite.StoreOptions{Workers: workers, Verify: verify})
	if err != nil {
		fatal(err)
	}
	m := suite.NewFamilyManifest(fam.ID, archName, grid, perCount, opts)
	st, err := store.EnsureCtx(context.Background(), m)
	if err != nil {
		fatal(err)
	}
	status := "generated"
	if st.Cached {
		status = "cache hit"
	}
	fmt.Printf("suite %s (%s)\n", st.Hash, status)
	fmt.Printf("  family=%s metric=%s device=%s grid=%v circuits-per-count=%d instances=%d\n",
		m.Generator, st.Metric, m.Device, m.Grid(), m.CircuitsPerCount, len(st.Instances))
	fmt.Printf("  dir: %s\n", st.Dir)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "qubikos-gen:", err)
	os.Exit(1)
}
