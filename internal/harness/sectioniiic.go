package harness

import (
	"context"
	"fmt"
	"io"

	"repro/internal/arch"
	"repro/internal/bmt"
	"repro/internal/qubikos"
	"repro/internal/router"
)

// Section III-C experiment: the paper argues QUBIKOS defeats
// subgraph-isomorphism tools — the special gates split the circuit into
// individually embeddable sections, but segment-local embeddings don't
// compose into the global optimum. This harness measures it: segment
// counts, validity, and the gap of the VF2 + token-swapping tool.

// SectionIIICRow is one instance of the experiment.
type SectionIIICRow struct {
	Instance  int
	OptSwaps  int
	Segments  int
	SwapsUsed int
	Ratio     float64
}

// SectionIIICResult aggregates the experiment.
type SectionIIICResult struct {
	Device    string
	Rows      []SectionIIICRow
	MeanRatio float64
	// MinSegments is the smallest observed segment count; the paper's
	// construction forces at least OptSwaps+1.
	MinSegments int
}

// RunSectionIIIC generates Aspen-4-style instances and runs the VF2-TS
// tool on them.
func RunSectionIIIC(dev *arch.Device, numSwaps, gates, instances int, seed int64) (*SectionIIICResult, error) {
	res := &SectionIIICResult{Device: dev.Name(), MinSegments: -1}
	tool := bmt.New(bmt.Options{})
	for i := 0; i < instances; i++ {
		b, err := qubikos.Generate(dev, qubikos.Options{
			NumSwaps:            numSwaps,
			TargetTwoQubitGates: gates,
			Seed:                seed + int64(i),
		})
		if err != nil {
			return nil, err
		}
		segs, err := tool.SegmentCount(b.Circuit, dev)
		if err != nil {
			return nil, err
		}
		out, err := router.RouteWithContext(context.Background(), tool, b.Circuit, dev)
		if err != nil {
			return nil, err
		}
		if err := router.Validate(b.Circuit, dev, out); err != nil {
			return nil, fmt.Errorf("harness: vf2-ts invalid on instance %d: %w", i, err)
		}
		if out.SwapCount < b.OptSwaps {
			return nil, fmt.Errorf("harness: vf2-ts beat the optimum on instance %d", i)
		}
		ratio := router.SwapRatio(out.SwapCount, b.OptSwaps)
		res.Rows = append(res.Rows, SectionIIICRow{
			Instance: i, OptSwaps: b.OptSwaps, Segments: segs,
			SwapsUsed: out.SwapCount, Ratio: ratio,
		})
		res.MeanRatio += ratio
		if res.MinSegments < 0 || segs < res.MinSegments {
			res.MinSegments = segs
		}
	}
	if len(res.Rows) > 0 {
		res.MeanRatio /= float64(len(res.Rows))
	}
	return res, nil
}

// RenderSectionIIIC prints the experiment.
func RenderSectionIIIC(w io.Writer, r *SectionIIICResult) {
	fmt.Fprintf(w, "Section III-C experiment on %s: VF2 + token swapping vs known optima\n", r.Device)
	fmt.Fprintf(w, "%-10s %9s %9s %10s %8s\n", "instance", "opt-swap", "segments", "swaps", "gap")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-10d %9d %9d %10d %7.2fx\n", row.Instance, row.OptSwaps, row.Segments, row.SwapsUsed, row.Ratio)
	}
	fmt.Fprintf(w, "mean gap %.2fx over %d instances (min segments %d)\n", r.MeanRatio, len(r.Rows), r.MinSegments)
	fmt.Fprintln(w, "every section embeds in isolation, yet the embeddings do not compose optimally —")
	fmt.Fprintln(w, "the paper's argument for why QUBIKOS defeats subgraph-isomorphism tools")
}
