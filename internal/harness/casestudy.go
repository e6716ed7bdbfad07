package harness

import (
	"fmt"
	"io"

	"repro/internal/arch"
	"repro/internal/family"
	"repro/internal/sabre"
)

// CaseStudyConfig drives the Section IV-C experiment: run SABRE from the
// *optimal* initial mapping on Aspen-4 QUBIKOS instances, find a decision
// where routing still goes wrong, dump the cost breakdown of that
// decision (the paper's 0.65-vs-0.7 lookahead analysis), and measure
// whether the proposed decay-weighted lookahead repairs it.
type CaseStudyConfig struct {
	Instances           int
	NumSwaps            int
	TargetTwoQubitGates int
	Seed                int64
	// DecaySweep lists the lookahead decay factors to ablate (0 = the
	// uniform Qiskit-style lookahead the paper dissects).
	DecaySweep []float64
}

// DefaultCaseStudyConfig mirrors the paper's Aspen-4 setting. The swap
// count sits at the top of the Figure 4 sweep because denser backbones
// give the uniform lookahead more chances to err; at this setting the
// misrouting the paper dissects appears in a few instances per 25.
func DefaultCaseStudyConfig() CaseStudyConfig {
	return CaseStudyConfig{
		Instances:           25,
		NumSwaps:            15,
		TargetTwoQubitGates: 300,
		Seed:                5000,
		DecaySweep:          []float64{0, 0.5, 0.7, 0.9},
	}
}

// Decision is one instrumented SABRE swap decision.
type Decision struct {
	Instance   int
	Step       int
	FrontGates string
	Chosen     sabre.SwapCost
	Runner     sabre.SwapCost // best rejected alternative
}

// CaseStudyResult aggregates the experiment.
type CaseStudyResult struct {
	// Suboptimal counts instances where SABRE, even granted the optimal
	// initial mapping, exceeded the optimal SWAP count.
	Instances   int
	Suboptimal  int
	MeanRatio   float64
	FirstMiss   *Decision // an example decision from a suboptimal run
	DecayLines  []DecayLine
	PerInstance []InstanceOutcome
}

// InstanceOutcome is the per-instance routing outcome with the planted
// optimal mapping.
type InstanceOutcome struct {
	Instance int
	Optimal  int
	Achieved int
}

// DecayLine is one row of the lookahead-decay ablation.
type DecayLine struct {
	Decay      float64
	MeanRatio  float64
	Suboptimal int
}

// RunCaseStudy executes the experiment.
func RunCaseStudy(cfg CaseStudyConfig) (*CaseStudyResult, error) {
	items, err := experimentItems(arch.RigettiAspen4(), cfg.NumSwaps, cfg.TargetTwoQubitGates, cfg.Instances, cfg.Seed, true)
	if err != nil {
		return nil, err
	}
	res := &CaseStudyResult{}

	// Phase 1: route from the planted optimal initial mapping with the
	// uniform lookahead and capture decisions.
	for i, it := range items {
		var steps []sabre.TraceStep
		out, err := routeExperiment(sabreTool(sabre.Options{
			Trials: 1,
			Seed:   cfg.Seed,
			Trace: func(ts sabre.TraceStep) {
				steps = append(steps, ts)
			},
		}), it)
		if err != nil {
			return nil, err
		}
		res.Instances++
		ratio := family.Swaps.Ratio(out.SwapCount, it.Optimal)
		res.MeanRatio += ratio
		res.PerInstance = append(res.PerInstance, InstanceOutcome{
			Instance: i, Optimal: it.Optimal, Achieved: out.SwapCount,
		})
		if out.SwapCount > it.Optimal {
			res.Suboptimal++
			if res.FirstMiss == nil && len(steps) > 0 {
				res.FirstMiss = pickIllustrativeDecision(i, steps)
			}
		}
	}
	if res.Instances > 0 {
		res.MeanRatio /= float64(res.Instances)
	}

	// Phase 2: lookahead-decay ablation over the same instances.
	for _, decay := range cfg.DecaySweep {
		line := DecayLine{Decay: decay}
		tool := sabreTool(sabre.Options{Trials: 1, Seed: cfg.Seed, LookaheadDecay: decay})
		for _, it := range items {
			out, err := routeExperiment(tool, it)
			if err != nil {
				return nil, err
			}
			line.MeanRatio += family.Swaps.Ratio(out.SwapCount, it.Optimal)
			if out.SwapCount > it.Optimal {
				line.Suboptimal++
			}
		}
		if len(items) > 0 {
			line.MeanRatio /= float64(len(items))
		}
		res.DecayLines = append(res.DecayLines, line)
	}
	return res, nil
}

// pickIllustrativeDecision selects a decision where the chosen swap won
// narrowly on the lookahead term — the shape of the paper's Figure 5
// example, where SWAP(q2,q9) beat SWAP(q3,q9) 0.65 to 0.7.
func pickIllustrativeDecision(instance int, steps []sabre.TraceStep) *Decision {
	for si, ts := range steps {
		if len(ts.Candidates) < 2 {
			continue
		}
		chosen := ts.Candidates[ts.ChosenIdx]
		// Runner-up: smallest total among the rest.
		runner := sabre.SwapCost{Total: -1}
		for ci, c := range ts.Candidates {
			if ci == ts.ChosenIdx {
				continue
			}
			if runner.Total < 0 || c.Total < runner.Total {
				runner = c
			}
		}
		// Interesting when the basic terms tie but lookahead separated
		// them (the paper's exact failure mode).
		if chosen.Basic == runner.Basic && chosen.Lookahead != runner.Lookahead {
			var fg string
			for _, g := range ts.FrontGates {
				fg += g.String() + "; "
			}
			return &Decision{Instance: instance, Step: si, FrontGates: fg, Chosen: chosen, Runner: runner}
		}
	}
	// Fall back to the first multi-candidate decision.
	for si, ts := range steps {
		if len(ts.Candidates) >= 2 {
			chosen := ts.Candidates[ts.ChosenIdx]
			runner := sabre.SwapCost{Total: -1}
			for ci, c := range ts.Candidates {
				if ci != ts.ChosenIdx && (runner.Total < 0 || c.Total < runner.Total) {
					runner = c
				}
			}
			return &Decision{Instance: instance, Step: si, Chosen: chosen, Runner: runner}
		}
	}
	return nil
}

// RenderCaseStudy prints the experiment in the shape of Section IV-C.
func RenderCaseStudy(w io.Writer, r *CaseStudyResult) {
	fmt.Fprintf(w, "Case study: SABRE routing from the optimal initial mapping (Aspen-4)\n")
	fmt.Fprintf(w, "  instances: %d, suboptimal routings: %d, mean gap: %.2fx\n",
		r.Instances, r.Suboptimal, r.MeanRatio)
	for _, o := range r.PerInstance {
		if o.Achieved > o.Optimal {
			fmt.Fprintf(w, "    instance %2d: optimal %d, achieved %d  <- misrouted despite optimal mapping\n",
				o.Instance, o.Optimal, o.Achieved)
		}
	}
	if r.FirstMiss != nil {
		d := r.FirstMiss
		fmt.Fprintf(w, "  example decision (instance %d, step %d):\n", d.Instance, d.Step)
		if d.FrontGates != "" {
			fmt.Fprintf(w, "    front layer: %s\n", d.FrontGates)
		}
		fmt.Fprintf(w, "    chosen  SWAP(q%d,q%d): basic=%.3f lookahead=%.3f decay=%.3f total=%.3f\n",
			d.Chosen.ProgA, d.Chosen.ProgB, d.Chosen.Basic, d.Chosen.Lookahead, d.Chosen.Decay, d.Chosen.Total)
		fmt.Fprintf(w, "    runner  SWAP(q%d,q%d): basic=%.3f lookahead=%.3f decay=%.3f total=%.3f\n",
			d.Runner.ProgA, d.Runner.ProgB, d.Runner.Basic, d.Runner.Lookahead, d.Runner.Decay, d.Runner.Total)
		fmt.Fprintln(w, "    (the paper's Figure 5: equal basic costs, the uniform lookahead term picks the wrong SWAP)")
	}
	fmt.Fprintln(w, "  lookahead-decay ablation (the paper's proposed fix):")
	fmt.Fprintf(w, "    %-8s %10s %11s\n", "decay", "mean-gap", "suboptimal")
	for _, l := range r.DecayLines {
		label := fmt.Sprintf("%.2f", l.Decay)
		if l.Decay == 0 {
			label = "uniform"
		}
		fmt.Fprintf(w, "    %-8s %9.2fx %11d\n", label, l.MeanRatio, l.Suboptimal)
	}
}
