package harness

import (
	"context"
	"fmt"
	"io"

	"repro/internal/qubikos"
	"repro/internal/router"
)

// RouterStudyConfig drives the standalone-router evaluation the paper
// proposes at the end of Section IV-C: every tool receives the provably
// optimal initial mapping, so any remaining SWAP gap is attributable to
// routing quality alone rather than placement.
type RouterStudyConfig struct {
	Suite SuiteConfig
}

// RouterRow aggregates one (tool, swap-count) cell of the router study.
type RouterRow struct {
	Tool      string
	OptSwaps  int
	Circuits  int
	MeanRatio float64
	Optimal   int // instances routed with exactly the optimal count
}

// RunRouterStudy routes every suite instance from its planted optimal
// mapping with every tool; a tool that cannot route from a fixed
// placement fails the study.
func RunRouterStudy(cfg RouterStudyConfig, tools []ToolSpec) ([]RouterRow, error) {
	suite, err := GenerateSuite(cfg.Suite)
	if err != nil {
		return nil, err
	}
	var rows []RouterRow
	for _, tool := range tools {
		for _, n := range cfg.Suite.SwapCounts {
			row := RouterRow{Tool: tool.Name, OptSwaps: n}
			for _, b := range suite {
				if b.OptSwaps != n {
					continue
				}
				res, err := routePlanted(tool.Make(cfg.Suite.Seed+101), b)
				if err != nil {
					return nil, fmt.Errorf("harness: %s from the planted mapping: %w", tool.Name, err)
				}
				if err := router.Validate(b.Circuit, b.Device, res); err != nil {
					return nil, fmt.Errorf("harness: %s placed result invalid: %w", tool.Name, err)
				}
				if res.SwapCount < b.OptSwaps {
					return nil, fmt.Errorf("harness: %s beat the optimum from the planted mapping", tool.Name)
				}
				row.Circuits++
				row.MeanRatio += router.SwapRatio(res.SwapCount, b.OptSwaps)
				if res.SwapCount == b.OptSwaps {
					row.Optimal++
				}
			}
			if row.Circuits > 0 {
				row.MeanRatio /= float64(row.Circuits)
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// routePlanted routes the benchmark with r from its planted optimal
// initial mapping.
func routePlanted(r router.Router, b *qubikos.Benchmark) (*router.Result, error) {
	p, err := router.Prepare(b.Circuit, b.Device)
	if err != nil {
		return nil, err
	}
	return r.Route(context.Background(), p, b.InitialMapping)
}

// RenderRouterStudy prints the study as a table.
func RenderRouterStudy(w io.Writer, rows []RouterRow) {
	fmt.Fprintln(w, "Standalone-router study (all tools start from the optimal mapping):")
	fmt.Fprintf(w, "%-14s %9s %9s %10s %9s\n", "tool", "opt-swap", "circuits", "mean-gap", "optimal")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %9d %9d %9.2fx %9d\n", r.Tool, r.OptSwaps, r.Circuits, r.MeanRatio, r.Optimal)
	}
}
