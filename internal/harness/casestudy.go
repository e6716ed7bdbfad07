package harness

import (
	"context"
	"fmt"
	"io"
	"os"

	"repro/internal/arch"
	"repro/internal/family"
	"repro/internal/router"
	"repro/internal/sabre"
	"repro/internal/suite"
)

// caseStudySeed seeds the Section IV-C suite and LightSABRE's
// tie-breaking.
const caseStudySeed = 5000

// caseStudySuite is the Section IV-C suite: Aspen-4 QUBIKOS instances at
// the top of the Figure 4 swap sweep, where denser backbones give the
// uniform lookahead more chances to err. The misrouting the paper
// dissects hits about one instance in ten there, so 100 instances
// measure its rate where 25 can show none.
func caseStudySuite() SuiteConfig {
	return SuiteConfig{
		Device:              arch.RigettiAspen4(),
		SwapCounts:          []int{15},
		CircuitsPerCount:    100,
		TargetTwoQubitGates: 300,
		Seed:                caseStudySeed,
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

// RunCaseStudy runs the Section IV-C experiment: route SABRE from the
// *optimal* initial mapping on every instance of the case-study suite,
// find a decision where routing still goes wrong, dump the cost
// breakdown of that decision (the paper's 0.65-vs-0.7 lookahead
// analysis), and measure whether the proposed decay-weighted lookahead
// repairs it. The suite is stored in a temporary store that certifies
// every instance on its bytes before it commits. A cancelled run returns
// the cancellation cause and no result.
func RunCaseStudy(ctx context.Context) (*CaseStudyResult, error) {
	dir, err := os.MkdirTemp("", "case-study-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	store, err := suite.Open(dir, suite.StoreOptions{Verify: true})
	if err != nil {
		return nil, err
	}
	st, err := store.EnsureCtx(ctx, caseStudySuite().Manifest())
	if err != nil {
		return nil, err
	}
	items, err := plantedItems(store, st)
	if err != nil {
		return nil, err
	}
	res := &CaseStudyResult{Instances: len(items)}

	// Phase 1: route with the uniform lookahead and capture decisions.
	// A Trace only turns off LightSABRE's lower-bound skip, which never
	// moves a decision, so this pass is also the ablation's uniform line.
	for i, it := range items {
		var steps []sabre.TraceStep
		out, err := routeExperiment(ctx, sabreTool(sabre.Options{
			Trials: 1,
			Seed:   caseStudySeed,
			Trace: func(ts sabre.TraceStep) {
				steps = append(steps, ts)
			},
		}), it)
		if err != nil {
			return nil, err
		}
		res.MeanRatio += family.Swaps.Ratio(out.SwapCount, it.Optimal)
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
	res.MeanRatio /= float64(len(items))
	res.DecayLines = []DecayLine{{MeanRatio: res.MeanRatio, Suboptimal: res.Suboptimal}}

	// Phase 2: the decay-weighted lookahead over the same instances.
	for _, decay := range []float64{0.5, 0.7, 0.9} {
		line := DecayLine{Decay: decay}
		tool := sabreTool(sabre.Options{Trials: 1, Seed: caseStudySeed, LookaheadDecay: decay})
		for _, it := range items {
			out, err := routeExperiment(ctx, tool, it)
			if err != nil {
				return nil, err
			}
			line.MeanRatio += family.Swaps.Ratio(out.SwapCount, it.Optimal)
			if out.SwapCount > it.Optimal {
				line.Suboptimal++
			}
		}
		line.MeanRatio /= float64(len(items))
		res.DecayLines = append(res.DecayLines, line)
	}
	return res, nil
}

// plantedItems loads every instance of a stored suite as an evaluation
// item pinned to its sidecar's planted optimal initial mapping: Section
// IV-C's standalone-router mode.
func plantedItems(store *suite.Store, st *suite.Suite) ([]EvalItem, error) {
	items := make([]EvalItem, 0, len(st.Instances))
	for _, ref := range st.Instances {
		it, li, err := loadItem(store, st, ref)
		if err != nil {
			return nil, err
		}
		it.initial = router.Mapping(li.Meta.InitialMapping)
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
func routeExperiment(ctx context.Context, tool ToolSpec, it EvalItem) (*router.Result, error) {
	res, failure, err := routeOne(ctx, tool, it, 0, 0, nil)
	if err == nil && res == nil {
		err = fmt.Errorf("harness: %s on %s: %s", tool.Name, it.ID, failure)
	}
	return res, err
}

// pickIllustrativeDecision selects a decision where the chosen swap won
// narrowly on the lookahead term — the shape of the paper's Figure 5
// example, where SWAP(q2,q9) beat SWAP(q3,q9) 0.65 to 0.7.
func pickIllustrativeDecision(instance int, steps []sabre.TraceStep) *Decision {
	for si, ts := range steps {
		if len(ts.Candidates) < 2 {
			continue
		}
		chosen, runner := ts.Candidates[ts.ChosenIdx], runnerUp(ts)
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
			return &Decision{Instance: instance, Step: si, Chosen: ts.Candidates[ts.ChosenIdx], Runner: runnerUp(ts)}
		}
	}
	return nil
}

// runnerUp returns the best rejected candidate of a decision with at
// least two: the smallest total, the first on a tie.
func runnerUp(ts sabre.TraceStep) sabre.SwapCost {
	best := -1
	for ci, c := range ts.Candidates {
		if ci != ts.ChosenIdx && (best < 0 || c.Total < ts.Candidates[best].Total) {
			best = ci
		}
	}
	return ts.Candidates[best]
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
