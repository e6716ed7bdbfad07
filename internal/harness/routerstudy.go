package harness

import (
	"context"
	"fmt"
	"io"

	"repro/internal/router"
	"repro/internal/suite"
)

// RouterRow aggregates one (tool, swap-count) cell of the router study.
type RouterRow struct {
	Tool      string
	OptSwaps  int
	Circuits  int
	MeanRatio float64
	Optimal   int // instances routed with exactly the optimal count
}

// RunRouterStudy is the standalone-router evaluation the paper proposes
// at the end of Section IV-C: every tool routes every instance of a
// stored suite from its planted optimal mapping, so any remaining gap is
// attributable to routing quality alone rather than placement. Each
// (tool, instance) pair routes through router.Guard like an evaluation
// cell, seeded the same way. A tool that cannot route from a fixed
// placement fails the study, as does a result that is invalid or beats
// the proven optimum; cancelling ctx aborts with the cancellation cause.
func RunRouterStudy(ctx context.Context, store *suite.Store, st *suite.Suite, tools []ToolSpec, seed int64) ([]RouterRow, error) {
	if err := scorable(st); err != nil {
		return nil, err
	}
	metric := st.Manifest.Metric()
	items := make([]EvalItem, 0, len(st.Instances))
	for _, ref := range st.Instances {
		it, li, err := loadItem(store, st, ref)
		if err != nil {
			return nil, err
		}
		it.initial = router.Mapping(li.Meta.InitialMapping)
		items = append(items, it)
	}
	budget := sweepBudget(1)
	var rows []RouterRow
	for _, tool := range tools {
		for _, n := range st.Manifest.Grid() {
			row := RouterRow{Tool: tool.Name, OptSwaps: n}
			for _, it := range items {
				if it.Optimal != n {
					continue
				}
				res, toolErr, err := routeOne(ctx, tool, it, seed, 0, budget)
				if err != nil {
					return nil, err
				}
				if res == nil {
					return nil, fmt.Errorf("harness: %s from the planted mapping on %s: %s", tool.Name, it.ID, toolErr)
				}
				achieved := metric.Achieved(res)
				row.Circuits++
				row.MeanRatio += metric.Ratio(achieved, n)
				if achieved == n {
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

// RenderRouterStudy prints the study as a table.
func RenderRouterStudy(w io.Writer, rows []RouterRow) {
	fmt.Fprintln(w, "Standalone-router study (all tools start from the optimal mapping):")
	fmt.Fprintf(w, "%-14s %9s %9s %10s %9s\n", "tool", "opt-swap", "circuits", "mean-gap", "optimal")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %9d %9d %9.2fx %9d\n", r.Tool, r.OptSwaps, r.Circuits, r.MeanRatio, r.Optimal)
	}
}
