// Optimality: the paper's Section IV-A study in miniature — generate
// QUBIKOS circuits with at most 30 two-qubit gates on Aspen-4 and the
// 3x3 grid, then certify each one's claimed SWAP count with the exact
// SAT-based layout synthesizer (UNSAT at n-1, SAT at n). Zero deviations
// reproduces the paper's conclusion that the construction is optimal.
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"repro/internal/harness"
)

func main() {
	cfg := harness.DefaultOptimalityConfig(3 /* circuits per cell; paper: 100 */, 7)
	fmt.Println("verifying QUBIKOS optimality with the exact SAT solver...")
	rows, err := harness.RunOptimalityStudyCtx(context.Background(), cfg)
	if err != nil {
		log.Fatal(err)
	}
	harness.RenderOptimality(os.Stdout, rows)

	deviations := 0
	for _, r := range rows {
		deviations += r.Deviation
	}
	if deviations == 0 {
		fmt.Println("\nall circuits verified: the generated SWAP counts are exactly optimal")
	} else {
		fmt.Printf("\n%d deviations found — the generator's guarantee is broken!\n", deviations)
		os.Exit(1)
	}
}
