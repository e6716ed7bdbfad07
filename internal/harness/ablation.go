package harness

import (
	"context"
	"fmt"
	"io"

	"repro/internal/arch"
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
		pt := AblationPoint{X: float64(total)}
		for i := 0; i < circuits; i++ {
			b, err := qubikos.Generate(dev, qubikos.Options{
				NumSwaps:            numSwaps,
				TargetTwoQubitGates: total,
				Seed:                seed + int64(total)*1000 + int64(i),
			})
			if err != nil {
				return nil, err
			}
			r := sabre.New(sabre.Options{Trials: trials, Seed: seed})
			res, err := router.RouteWithContext(context.Background(), r, b.Circuit, b.Device)
			if err != nil {
				return nil, err
			}
			if err := router.Validate(b.Circuit, b.Device, res); err != nil {
				return nil, err
			}
			pt.MeanRatio += router.SwapRatio(res.SwapCount, b.OptSwaps)
			pt.Circuits++
		}
		if pt.Circuits > 0 {
			pt.MeanRatio /= float64(pt.Circuits)
		}
		out = append(out, pt)
	}
	return out, nil
}

// TrialsAblation sweeps LightSABRE's trial budget on a fixed suite.
func TrialsAblation(dev *arch.Device, numSwaps, gates int, trialSweep []int, circuits int, seed int64) ([]AblationPoint, error) {
	benches := make([]*qubikos.Benchmark, 0, circuits)
	for i := 0; i < circuits; i++ {
		b, err := qubikos.Generate(dev, qubikos.Options{
			NumSwaps:            numSwaps,
			TargetTwoQubitGates: gates,
			Seed:                seed + int64(i),
		})
		if err != nil {
			return nil, err
		}
		benches = append(benches, b)
	}
	var out []AblationPoint
	for _, trials := range trialSweep {
		pt := AblationPoint{X: float64(trials)}
		for _, b := range benches {
			r := sabre.New(sabre.Options{Trials: trials, Seed: seed})
			res, err := router.RouteWithContext(context.Background(), r, b.Circuit, b.Device)
			if err != nil {
				return nil, err
			}
			pt.MeanRatio += router.SwapRatio(res.SwapCount, b.OptSwaps)
			pt.Circuits++
		}
		if pt.Circuits > 0 {
			pt.MeanRatio /= float64(pt.Circuits)
		}
		out = append(out, pt)
	}
	return out, nil
}

// ExtendedSetAblation sweeps SABRE's lookahead window size (the paper's
// case study pivots on the Qiskit default of 20).
func ExtendedSetAblation(dev *arch.Device, numSwaps, gates int, sizes []int, circuits, trials int, seed int64) ([]AblationPoint, error) {
	benches := make([]*qubikos.Benchmark, 0, circuits)
	for i := 0; i < circuits; i++ {
		b, err := qubikos.Generate(dev, qubikos.Options{
			NumSwaps:            numSwaps,
			TargetTwoQubitGates: gates,
			Seed:                seed + int64(i),
		})
		if err != nil {
			return nil, err
		}
		benches = append(benches, b)
	}
	var out []AblationPoint
	for _, size := range sizes {
		pt := AblationPoint{X: float64(size)}
		for _, b := range benches {
			r := sabre.New(sabre.Options{Trials: trials, ExtendedSetSize: size, Seed: seed})
			res, err := router.RouteWithContext(context.Background(), r, b.Circuit, b.Device)
			if err != nil {
				return nil, err
			}
			pt.MeanRatio += router.SwapRatio(res.SwapCount, b.OptSwaps)
			pt.Circuits++
		}
		if pt.Circuits > 0 {
			pt.MeanRatio /= float64(pt.Circuits)
		}
		out = append(out, pt)
	}
	return out, nil
}

// RenderAblation prints a sweep with a caption.
func RenderAblation(w io.Writer, caption, xLabel string, pts []AblationPoint) {
	fmt.Fprintln(w, caption)
	fmt.Fprintf(w, "  %-12s %10s %9s\n", xLabel, "mean-gap", "circuits")
	for _, p := range pts {
		fmt.Fprintf(w, "  %-12.0f %9.2fx %9d\n", p.X, p.MeanRatio, p.Circuits)
	}
}
