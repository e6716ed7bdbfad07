package harness

import (
	"context"
	"fmt"

	"repro/internal/arch"
	"repro/internal/family"
	"repro/internal/qubikos"
	"repro/internal/router"
	"repro/internal/sabre"
)

// AblationPoint is one x/y pair of an ablation sweep.
type AblationPoint struct {
	X         float64
	MeanRatio float64
	Circuits  int
}

// TrialsAblation measures how LightSABRE's gap shrinks with its
// random-restart budget (the paper runs 1000 trials, CI runs far fewer).
// It generates one fixed suite and, for each trial count in trialSweep,
// routes all of it with LightSABRE at that count, averaging the gaps.
func TrialsAblation(dev *arch.Device, numSwaps, gates int, trialSweep []int, circuits int, seed int64) ([]AblationPoint, error) {
	items, err := experimentItems(dev, numSwaps, gates, circuits, seed, false)
	if err != nil {
		return nil, err
	}
	out := make([]AblationPoint, 0, len(trialSweep))
	for _, trials := range trialSweep {
		pt := AblationPoint{X: float64(trials)}
		tool := sabreTool(sabre.Options{Trials: trials, Seed: seed})
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
