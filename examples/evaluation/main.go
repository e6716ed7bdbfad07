// Evaluation: a reduced Figure-4 run — all four QLS tools on two of the
// paper's architectures (Aspen-4 and Rochester), printing the per-cell
// optimality-gap tables and the cross-tool averages. The suites live in
// a temporary store for the run. Scale the constants up (circuits,
// trials, devices) to approach the paper's full setting.
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"repro/internal/arch"
	"repro/internal/harness"
	"repro/internal/suite"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	suites := []harness.SuiteConfig{
		{
			Device:              arch.RigettiAspen4(),
			SwapCounts:          []int{5, 10},
			CircuitsPerCount:    3,
			TargetTwoQubitGates: 300,
			Seed:                11,
		},
		{
			Device:              arch.IBMRochester53(),
			SwapCounts:          []int{5, 10},
			CircuitsPerCount:    2,
			TargetTwoQubitGates: 1500,
			Seed:                11,
		},
	}
	tools := harness.DefaultTools(8) // 8 LightSABRE trials; the paper uses 1000

	dir, err := os.MkdirTemp("", "qubikos-evaluation-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, err := suite.Open(dir, suite.StoreOptions{Verify: true})
	if err != nil {
		return err
	}

	ctx := context.Background()
	var figs []*harness.Figure
	for _, cfg := range suites {
		st, err := store.EnsureCtx(ctx, cfg.Manifest())
		if err != nil {
			return err
		}
		fig, err := harness.RunStoredEvalCtx(ctx, store, st, tools, harness.StoredEvalOptions{Seed: cfg.Seed})
		if err != nil {
			return err
		}
		figs = append(figs, fig)
		harness.RenderFigure(os.Stdout, fig)
		fmt.Println()
	}
	harness.RenderAbstract(os.Stdout, harness.AbstractGaps(figs))

	fmt.Println("\nExpected shape (paper Figure 4): LightSABRE smallest gap,")
	fmt.Println("ML-QLS close behind, QMAP and t|ket| far larger; Rochester's")
	fmt.Println("sparse heavy-hex structure shows a larger gap than Aspen-4.")
	return nil
}
