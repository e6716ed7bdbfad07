package harness

import (
	"context"
	"fmt"
	"io"

	"repro/internal/arch"
	"repro/internal/family"
	"repro/internal/qubikos"
	"repro/internal/router"
	"repro/internal/sabre"
)

// The ablations quantify the design choices DESIGN.md calls out:
//
//   - padding dilution: the optimality gap of heuristic tools is driven
//     by the fraction of redundant padding gates (unpadded backbones are
//     nearly alignable; padded ones are not);
//   - SABRE trial scaling: how the gap shrinks with the random-restart
//     budget (the paper runs 1000 trials, CI runs far fewer);
//   - extended-set size: the lookahead window the paper's case study
//     dissects (Qiskit default 20, weight 0.5).

// AblationPoint is one x/y pair of an ablation sweep.
type AblationPoint struct {
	X         float64
	MeanRatio float64
	Circuits  int
}

// PaddingAblation sweeps the padded two-qubit gate total on one device at
// a fixed optimal SWAP count and reports LightSABRE's mean gap per total.
func PaddingAblation(dev *arch.Device, numSwaps int, totals []int, circuits int, trials int, seed int64) ([]AblationPoint, error) {
	var out []AblationPoint
	for _, total := range totals {
		pts, err := sabreSweep(dev, numSwaps, total, circuits, seed+int64(total)*1000, []int{total},
			func(int) sabre.Options { return sabre.Options{Trials: trials, Seed: seed} })
		if err != nil {
			return nil, err
		}
		out = append(out, pts...)
	}
	return out, nil
}

// TrialsAblation sweeps LightSABRE's trial budget on a fixed suite.
func TrialsAblation(dev *arch.Device, numSwaps, gates int, trialSweep []int, circuits int, seed int64) ([]AblationPoint, error) {
	return sabreSweep(dev, numSwaps, gates, circuits, seed, trialSweep,
		func(trials int) sabre.Options { return sabre.Options{Trials: trials, Seed: seed} })
}

// ExtendedSetAblation sweeps SABRE's lookahead window size (the paper's
// case study pivots on the Qiskit default of 20).
func ExtendedSetAblation(dev *arch.Device, numSwaps, gates int, sizes []int, circuits, trials int, seed int64) ([]AblationPoint, error) {
	return sabreSweep(dev, numSwaps, gates, circuits, seed, sizes,
		func(size int) sabre.Options { return sabre.Options{Trials: trials, ExtendedSetSize: size, Seed: seed} })
}

// sabreSweep generates one fixed suite and, for each x, routes all of it
// with the LightSABRE configuration opts(x), averaging the gaps.
func sabreSweep(dev *arch.Device, numSwaps, gates, circuits int, seed int64, xs []int, opts func(x int) sabre.Options) ([]AblationPoint, error) {
	items, err := experimentItems(dev, numSwaps, gates, circuits, seed, false)
	if err != nil {
		return nil, err
	}
	out := make([]AblationPoint, 0, len(xs))
	for _, x := range xs {
		pt, tool := AblationPoint{X: float64(x)}, sabreTool(opts(x))
		for _, it := range items {
			res, err := routeExperiment(tool, it)
			if err != nil {
				return nil, err
			}
			pt.MeanRatio += family.Swaps.Ratio(res.SwapCount, it.Optimal)
			pt.Circuits++
		}
		if pt.Circuits > 0 {
			pt.MeanRatio /= float64(pt.Circuits)
		}
		out = append(out, pt)
	}
	return out, nil
}

// experimentItems generates n QUBIKOS instances on dev, seeded seed,
// seed+1, …, as evaluation items carrying their planted optima. planted
// pins each item to its planted optimal initial mapping, Section IV-C's
// standalone-router mode.
func experimentItems(dev *arch.Device, numSwaps, gates, n int, seed int64, planted bool) ([]EvalItem, error) {
	items := make([]EvalItem, 0, n)
	for i := 0; i < n; i++ {
		s := seed + int64(i)
		b, err := qubikos.Generate(dev, qubikos.Options{
			NumSwaps:            numSwaps,
			TargetTwoQubitGates: gates,
			Seed:                s,
		})
		if err != nil {
			return nil, err
		}
		it := EvalItem{
			ID:      fmt.Sprintf("%s_s%d_g%d_seed%d", dev.Name(), numSwaps, gates, s),
			Device:  dev,
			Circuit: b.Circuit,
			Optimal: b.OptSwaps,
		}
		if planted {
			it.initial = b.InitialMapping
		}
		items = append(items, it)
	}
	return items, nil
}

// sabreTool wraps one LightSABRE configuration as a ToolSpec whose Make
// ignores router.Guard's seed offset, so an experiment keeps the seed it
// configured.
func sabreTool(opts sabre.Options) ToolSpec {
	return ToolSpec{Name: "lightsabre", Make: func(int64) router.Router { return sabre.New(opts) }}
}

// routeExperiment routes one experiment item through routeOne, the
// guarded path every Figure-4 cell takes, so each result is validated
// and checked against the planted optimum. A tool failure fails the
// experiment.
func routeExperiment(tool ToolSpec, it EvalItem) (*router.Result, error) {
	res, failure, err := routeOne(context.Background(), tool, it, 0, 0, nil)
	if err == nil && res == nil {
		err = fmt.Errorf("harness: %s on %s: %s", tool.Name, it.ID, failure)
	}
	return res, err
}

// RenderAblation prints a sweep with a caption.
func RenderAblation(w io.Writer, caption, xLabel string, pts []AblationPoint) {
	fmt.Fprintln(w, caption)
	fmt.Fprintf(w, "  %-12s %10s %9s\n", xLabel, "mean-gap", "circuits")
	for _, p := range pts {
		fmt.Fprintf(w, "  %-12.0f %9.2fx %9d\n", p.X, p.MeanRatio, p.Circuits)
	}
}
