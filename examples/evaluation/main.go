// Evaluation: a reduced Figure-4 run — all four QLS tools on two of the
// paper's architectures (Aspen-4 and Rochester), printing the per-cell
// optimality-gap tables and the cross-tool averages. Scale the constants
// up (circuits, trials, devices) to approach the paper's full setting.
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"repro/internal/arch"
	"repro/internal/harness"
)

func main() {
	suites := []harness.SuiteConfig{
		{
			Device:              arch.RigettiAspen4(),
			SwapCounts:          []int{5, 10},
			CircuitsPerCount:    3,
			TargetTwoQubitGates: 300,
			Seed:                11,
			Verify:              true,
		},
		{
			Device:              arch.IBMRochester53(),
			SwapCounts:          []int{5, 10},
			CircuitsPerCount:    2,
			TargetTwoQubitGates: 1500,
			Seed:                11,
			Verify:              true,
		},
	}
	tools := harness.DefaultTools(8) // 8 LightSABRE trials; the paper uses 1000

	var figs []*harness.Figure
	for _, cfg := range suites {
		fig, err := harness.RunFigureCtx(context.Background(), cfg, tools, harness.EvalConfig{Seed: cfg.Seed})
		if err != nil {
			log.Fatal(err)
		}
		figs = append(figs, fig)
		harness.RenderFigure(os.Stdout, fig)
		fmt.Println()
	}
	harness.RenderAbstract(os.Stdout, harness.AbstractGaps(figs))

	fmt.Println("\nExpected shape (paper Figure 4): LightSABRE smallest gap,")
	fmt.Println("ML-QLS close behind, QMAP and t|ket| far larger; Rochester's")
	fmt.Println("sparse heavy-hex structure shows a larger gap than Aspen-4.")
}
