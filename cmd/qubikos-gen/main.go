// Command qubikos-gen generates a benchmark suite from any registered
// benchmark family: QUBIKOS circuits with provably optimal SWAP counts
// (the default), or QUEKO-style circuits with provably optimal routed
// depth (-family queko-depth). The suite — the metric grid (-swaps or
// -depths) times -count instances — lands in the content-addressed
// store at -cache-dir with its manifest and checksum index, so
// qubikos-eval -suite and qubikos-verify -suite can re-check every
// instance by the suite's hash. Re-running with the same parameters
// finds the stored suite and generates nothing; qubikos-eval,
// qubikos-verify, qubikos-route and qubikos-serve read the same store.
//
// The command prints the suite's content hash, a "dir:" line naming the
// suite's instance directory (the -dir that qubikos-route reads), and
// one line per instance with its base name and proven optimum.
//
// Usage:
//
//	qubikos-gen -arch aspen4 -swaps 5,10,15,20 -gates 300 -count 10 -seed 1
//	qubikos-gen -arch grid3x3 -swaps 2 -max-gates 30 -prefer-high-degree
//	qubikos-gen -cache-dir cache -arch aspen4 -family queko-depth -depths 10,20 -gates 300 -count 10
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro/internal/family"
	"repro/internal/suite"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "qubikos-gen:", err)
		os.Exit(1)
	}
}

func run() error {
	archName := flag.String("arch", "aspen4", "device: aspen4, sycamore54, rochester53, eagle127, grid3x3")
	famName := flag.String("family", "qubikos", "benchmark family: qubikos (optimal swaps) or queko-depth (optimal depth)")
	swaps := flag.String("swaps", "5", "provably optimal SWAP count, or a comma-separated grid (swap-metric families)")
	depths := flag.String("depths", "8", "provably optimal routed depth, or a comma-separated grid (depth-metric families)")
	gates := flag.Int("gates", 300, "target two-qubit gate total (padding)")
	maxGates := flag.Int("max-gates", 0, "hard cap on two-qubit gates (0 = none)")
	oneQ := flag.Int("oneq", 0, "single-qubit gates to sprinkle in")
	count := flag.Int("count", 1, "number of circuits per grid value")
	seed := flag.Int64("seed", 1, "base random seed")
	preferHigh := flag.Bool("prefer-high-degree", false, "bias qubikos sections toward max-degree qubits (smaller backbones)")
	verify := flag.Bool("verify", true, "read each written instance back and run its family's certificate before the suite commits")
	cacheDir := flag.String("cache-dir", "qubikos-cache", "suite store root")
	workers := flag.Int("workers", 0, "parallel generation workers (0 = all CPUs)")
	flag.Parse()

	fam, err := family.Resolve(*famName)
	if err != nil {
		return err
	}
	gridFlag := *swaps
	if fam.Metric == family.Depth {
		gridFlag = *depths
	}
	grid, err := family.ParseGrid(gridFlag, fam.MinOptimal)
	if err != nil {
		return err
	}
	m := suite.NewFamilyManifest(fam.ID, *archName, grid, *count, family.Options{
		TargetTwoQubitGates: *gates,
		MaxTwoQubitGates:    *maxGates,
		SingleQubitGates:    *oneQ,
		PreferHighDegree:    *preferHigh,
		Seed:                *seed,
	})
	// Open creates the store root, so a manifest the store would reject
	// (an unknown device, a target above the cap) fails first and leaves
	// nothing on disk.
	if err := m.Validate(); err != nil {
		return err
	}
	store, err := suite.Open(*cacheDir, suite.StoreOptions{Workers: *workers, Verify: *verify})
	if err != nil {
		return err
	}
	st, err := store.EnsureCtx(context.Background(), m)
	if err != nil {
		return err
	}
	status := "generated"
	if st.Cached {
		status = "cache hit"
	}
	fmt.Printf("suite %s (%s)\n", st.Hash, status)
	fmt.Printf("  family=%s metric=%s device=%s grid=%v circuits-per-count=%d instances=%d\n",
		m.Generator, st.Metric, m.Device, m.Grid(), m.CircuitsPerCount, len(st.Instances))
	fmt.Printf("  dir: %s\n", store.InstanceDir(st.Hash))
	for _, ref := range st.Instances {
		fmt.Printf("  %s: optimal %s %d\n", ref.Base, st.Metric, ref.Optimal)
	}
	return nil
}
