// Command qubikos-route routes one stored benchmark instance (-dir is
// the instance directory qubikos-gen prints on its "dir:" line) with one
// of the QLS tools and reports the achieved value and optimality gap in
// the instance's family metric: SWAP count for qubikos instances, routed
// depth for queko-depth instances (both are always printed). With
// -from-optimal it starts the router from the instance's planted optimal
// mapping — the paper's standalone-router evaluation mode. The tool is
// built, seeded and audited through router.Guard exactly as an
// evaluation cell or a portfolio racer is, so the same -seed routes the
// same in every mode.
//
// With -portfolio the command races the registered tools concurrently
// under a -deadline budget and reports the best validated result plus a
// per-racer outcome table (anytime semantics: the deadline degrades to
// best-so-far; only "no tool produced a valid result" exits non-zero).
// -threshold ends the race early once a result is within that ratio of
// the instance's proven optimum, and -hedge staggers expensive tools
// behind cheap ones.
//
// Usage:
//
//	qubikos-route -dir <dir> -base s005_i000 -tool lightsabre
//	qubikos-route -dir <dir> -base ... -tool tket -from-optimal
//	qubikos-route -dir <dir> -base ... -tool qmap -timeout 30s
//	qubikos-route -dir <dir> -base ... -trace out.json
//	qubikos-route -dir <dir> -base ... -portfolio -deadline 5s -threshold 1.2
//	qubikos-route -dir <dir> -base ... -portfolio -tools lightsabre,tket -hedge 0
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/bmt"
	"repro/internal/family"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/portfolio"
	"repro/internal/router"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "qubikos-route:", err)
		os.Exit(1)
	}
}

// run is the whole command. It returns its error instead of exiting, so
// the deferred trace write runs on every exit path, a failed routing's
// included.
func run() (err error) {
	dir := flag.String("dir", ".", "instance directory: the dir: line qubikos-gen prints")
	base := flag.String("base", "", "instance base name (without .qasm/.json)")
	tool := flag.String("tool", "lightsabre", "lightsabre, ml-qls, qmap, tket, vf2-ts")
	trials := flag.Int("trials", 32, "LightSABRE trials")
	seed := flag.Int64("seed", 1, "router seed")
	fromOptimal := flag.Bool("from-optimal", false, "route from the planted optimal initial mapping")
	timeout := flag.Duration("timeout", 0, "routing budget; an over-budget run exits non-zero instead of hanging (0 = unlimited; per-racer budget with -portfolio)")
	tracePath := flag.String("trace", "", "write a Chrome trace-event JSON of the routing run to this file")
	usePortfolio := flag.Bool("portfolio", false, "race the registered tools concurrently and keep the best validated result")
	toolsList := flag.String("tools", "", "comma-separated tool subset for -portfolio (default: all registered)")
	deadline := flag.Duration("deadline", 30*time.Second, "race budget for -portfolio; when it fires the best result so far wins")
	threshold := flag.Float64("threshold", 0, "win-condition ratio vs the proven optimum for -portfolio (0 = race to completion)")
	hedge := flag.Duration("hedge", 100*time.Millisecond, "hedge stagger between tool cost tiers for -portfolio (0 = launch everything at once)")
	flag.Parse()

	if *base == "" {
		return fmt.Errorf("-base is required")
	}
	inst, err := family.ReadInstance(*dir, *base)
	if err != nil {
		return err
	}

	// The routing honours SIGINT/SIGTERM through one context, which every
	// router polls mid-search.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *tracePath != "" {
		tr := obs.New(0)
		ctx = obs.NewContext(ctx, tr)
		defer func() {
			if werr := obs.WriteChromeFile(tr, *tracePath, os.Stdout, os.Stderr); err == nil {
				err = werr
			}
		}()
	}

	if *usePortfolio {
		return runPortfolio(ctx, inst, *base, *toolsList, *trials, *seed, *deadline, *hedge, *timeout, *threshold)
	}

	// The harness's four paper tools plus the Section III-C VF2 +
	// token-swapping baseline.
	specs := append(harness.DefaultTools(*trials), harness.ToolSpec{
		Name: "vf2-ts",
		Make: func(int64) router.Router { return bmt.New() },
	})
	var spec *harness.ToolSpec
	names := make([]string, len(specs))
	for i := range specs {
		names[i] = specs[i].Name
		if specs[i].Name == *tool {
			spec = &specs[i]
		}
	}
	if spec == nil {
		// An unknown tool is rejected with the registry listed — never
		// silently mapped to a default.
		return fmt.Errorf("unknown tool %q (registered: %s)", *tool, strings.Join(names, ", "))
	}

	var initial router.Mapping
	if *fromOptimal {
		initial = router.Mapping(inst.Meta.InitialMapping)
	}
	p, err := router.Prepare(inst.Circuit, inst.Device)
	if err != nil {
		return err
	}
	metric := inst.Family.Metric
	// The attempt runs guarded like an evaluation cell or a portfolio
	// racer: the same seeded constructor, -timeout as its budget, and the
	// result audited before it is reported.
	sp, ctx := obs.Begin(ctx, "route", *tool)
	sp.Arg("instance", *base)
	out := router.Guard(ctx, router.Attempt{
		Tool:     spec.Name,
		Make:     spec.Make,
		Seed:     *seed,
		Prepared: p,
		Initial:  initial,
		Timeout:  *timeout,
		Score:    metric.Achieved,
		Optimal:  inst.Meta.Optimal(),
		Span:     &sp,
	})
	sp.End()
	switch out.Kind {
	case router.OutcomeOK:
	case router.OutcomeTimeout:
		return fmt.Errorf("routing exceeded the -timeout budget %v", *timeout)
	default:
		return fmt.Errorf("%s: %w", spec.Name, out.Err)
	}
	res := out.Result

	fmt.Printf("instance: %s on %s (family %s, %d two-qubit gates, optimal %s %d)\n",
		*base, inst.Meta.Device, inst.Family.ID, inst.Meta.TwoQubitGates, metric, inst.Meta.Optimal())
	mode := "full layout synthesis"
	if *fromOptimal {
		mode = "routing from the optimal mapping"
	}
	fmt.Printf("%s (%s): %d SWAPs, routed depth %d -> %s gap %.2fx\n",
		res.Tool, mode, res.SwapCount, res.RoutedDepth(), metric,
		metric.Ratio(metric.Achieved(res), inst.Meta.Optimal()))
	return nil
}

// runPortfolio races the selected tools over the instance and prints
// the winner plus a per-racer outcome table. The harness tool registry
// supplies the constructors so a portfolio winner matches what the
// evaluation pipeline would produce for the same seed.
func runPortfolio(ctx context.Context, inst *family.Loaded, base, toolsList string, trials int, seed int64, deadline, hedge, toolTimeout time.Duration, threshold float64) error {
	specs, err := harness.SelectTools(toolsList, trials)
	if err != nil {
		return err
	}
	entries := make([]portfolio.Entry, 0, len(specs))
	for _, t := range specs {
		entries = append(entries, portfolio.Entry{
			Name: t.Name,
			Make: t.Make,
			Tier: portfolio.DefaultTier(t.Name),
		})
	}
	p, err := router.Prepare(inst.Circuit, inst.Device)
	if err != nil {
		return err
	}
	metric := inst.Family.Metric
	res, err := portfolio.Run(ctx, p, entries, portfolio.Options{
		Deadline:    deadline,
		ToolTimeout: toolTimeout,
		Threshold:   threshold,
		Optimal:     inst.Meta.Optimal(),
		Metric:      metric,
		HedgeDelay:  hedge,
		Seed:        seed,
	})
	if err != nil {
		return err
	}

	fmt.Printf("instance: %s on %s (family %s, %d two-qubit gates, optimal %s %d)\n",
		base, inst.Meta.Device, inst.Family.ID, inst.Meta.TwoQubitGates, metric, inst.Meta.Optimal())
	note := ""
	if res.DeadlineHit {
		note = ", deadline hit"
	}
	fmt.Printf("winner: %s (%s%s): %d SWAPs, routed depth %d -> %s gap %.2fx in %dms\n",
		res.Tool, res.Reason, note, res.Winner.SwapCount, res.Winner.RoutedDepth(), metric,
		metric.Ratio(res.Score, inst.Meta.Optimal()), res.ElapsedMS)
	fmt.Println("racers:")
	for _, r := range res.Racers {
		line := fmt.Sprintf("  %-12s tier %d  %-10s %6dms", r.Tool, r.Tier, r.Outcome, r.ElapsedMS)
		if r.Outcome == portfolio.OutcomeOK {
			line += fmt.Sprintf("  %s %d (%.2fx)", metric, r.Score, r.Ratio)
		}
		if r.Winner {
			line += "  <- winner"
		}
		if r.Err != "" {
			line += "  [" + r.Err + "]"
		}
		fmt.Println(line)
	}
	return nil
}
