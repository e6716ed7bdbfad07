package harness

import (
	"fmt"
	"io"

	"repro/internal/arch"
	"repro/internal/bmt"
	"repro/internal/family"
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
	items, err := experimentItems(dev, numSwaps, gates, instances, seed, false)
	if err != nil {
		return nil, err
	}
	res := &SectionIIICResult{Device: dev.Name(), MinSegments: -1}
	tool := bmt.New()
	spec := ToolSpec{Name: tool.Name(), Make: func(int64) router.Router { return tool }}
	for i, it := range items {
		segs, err := tool.SegmentCount(it.Circuit, dev)
		if err != nil {
			return nil, err
		}
		out, err := routeExperiment(spec, it)
		if err != nil {
			return nil, err
		}
		ratio := family.Swaps.Ratio(out.SwapCount, it.Optimal)
		res.Rows = append(res.Rows, SectionIIICRow{
			Instance: i, OptSwaps: it.Optimal, Segments: segs,
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
