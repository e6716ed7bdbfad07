// Package portfolio races several quantum layout synthesis tools over
// one shared routing context under a deadline budget, returning the best
// validated result produced so far when the budget expires — anytime
// semantics: a deadline is a degradation, not an error, and an error is
// returned only when no tool produced a valid result at all.
//
// The scheduler layers three robustness mechanisms over the raw race:
//
//   - Fault isolation. Every racer runs in its own guarded goroutine
//     under the repository's cancellation contract: a hung tool is cut
//     off by its timeout, a panicking tool becomes a racer outcome (never
//     a crash), and every result is audited with router.Validate before
//     it may win — a lying tool can lose the race but never poison it.
//   - Win conditions. A validated result that matches the proven optimum,
//     or beats the configured threshold ratio against it, ends the race
//     immediately: the remaining racers are cancelled through their
//     contexts, exactly as the PR-6 contract promises.
//   - Staggered hedging. Cheap tools (low Tier) launch first; expensive
//     ones launch a configurable hedge delay per tier later, or
//     immediately once every launched racer has finished without a
//     winner. Racers share one pool.Budget so router-internal
//     parallelism never oversubscribes the host.
//
// Per-tool circuit breakers (BreakerSet) sit in front of the race:
// consecutive faulty outcomes trip a tool open so later races skip it,
// and a half-open probe re-admits it once it recovers.
package portfolio

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/family"
	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/router"
)

// Entry is one tool registered with a race.
type Entry struct {
	// Name identifies the tool in reports, spans, and breaker state.
	Name string
	// Make builds a fresh tool instance for this race (racers never share
	// a tool instance, so a stateful engine cannot leak between racers).
	Make func(seed int64) router.Router
	// Tier is the tool's hedge tier: tier T launches T*HedgeDelay after
	// the cheapest admitted tier. Equal tiers launch together.
	Tier int
}

// DefaultTier returns the hedge tier used for the repository's tools,
// ordered by measured cost (BENCH_routers.json): t|ket⟩ and ML-QLS are
// millisecond-class, LightSABRE hundreds of milliseconds, QMAP the most
// expensive. Unknown tools land in the middle.
func DefaultTier(tool string) int {
	switch tool {
	case "tket", "ml-qls":
		return 0
	case "lightsabre":
		return 1
	case "qmap":
		return 2
	}
	return 1
}

// Options tunes one race.
type Options struct {
	// Deadline bounds the whole race; when it fires the best validated
	// result so far is returned (ErrNoResult if there is none). 0 waits
	// for every racer.
	Deadline time.Duration
	// ToolTimeout bounds each individual racer; a racer over budget
	// becomes a "timeout" outcome while the race continues. 0 means
	// racers are bounded only by the race deadline.
	ToolTimeout time.Duration
	// Threshold is the win-condition ratio: a validated result with
	// score <= Threshold*Optimal ends the race and cancels the remaining
	// racers. Requires Optimal; 0 disables.
	Threshold float64
	// Optimal is the instance's proven optimal metric value when known
	// (benchmark instances); 0 means unknown, which disables the
	// threshold and proven-optimum win conditions and ratio reporting.
	Optimal int
	// Metric scores results (zero value scores SWAPs).
	Metric family.Metric
	// HedgeDelay staggers launch tiers; 0 launches everything at once.
	HedgeDelay time.Duration
	// Seed feeds each tool's constructor (offset by router.Guard's schedule,
	// so a portfolio winner matches the evaluation pipeline's result for
	// the same seed).
	Seed int64
	// Breakers, when non-nil, gates admission per tool and is fed every
	// racer outcome. Tools whose breaker is open are skipped.
	Breakers *BreakerSet
}

// Racer outcome classes: router.Guard's six verdicts plus the two a
// racer gets without ever running.
const (
	OutcomeOK        = router.OutcomeOK        // validated result produced
	OutcomeError     = router.OutcomeError     // tool returned an error
	OutcomeTimeout   = router.OutcomeTimeout   // racer or race budget expired on it
	OutcomePanic     = router.OutcomePanic     // tool panicked (contained)
	OutcomeInvalid   = router.OutcomeInvalid   // result failed the independent audit
	OutcomeCancelled = router.OutcomeCancelled // race ended (win or caller cancel) first
	OutcomeHedged    = "hedged"                // race ended before its hedge tier launched
	OutcomeSkipped   = "skipped"               // circuit breaker open; never admitted
)

// Racer reports one tool's part in a race.
type Racer struct {
	Tool    string `json:"tool"`
	Tier    int    `json:"tier"`
	Outcome string `json:"outcome"`
	// Score is the achieved metric value (validated results only).
	Score     int     `json:"score,omitempty"`
	Swaps     int     `json:"swaps,omitempty"`
	Depth     int     `json:"depth,omitempty"`
	Ratio     float64 `json:"ratio,omitempty"`
	ElapsedMS int64   `json:"elapsed_ms"`
	Err       string  `json:"error,omitempty"`
	// Probe marks a circuit breaker's half-open probe admission.
	Probe  bool `json:"probe,omitempty"`
	Winner bool `json:"winner,omitempty"`
}

// Win/end reasons.
const (
	ReasonThreshold = "threshold" // a result beat Threshold*Optimal
	ReasonOptimal   = "optimal"   // a result matched the proven optimum
	ReasonComplete  = "complete"  // every racer finished; best of all wins
	ReasonDeadline  = "deadline"  // budget expired; best-so-far returned
)

// Result is a race's outcome: the winning validated result plus the full
// per-racer degradation record.
type Result struct {
	// Winner is the best validated result (never nil: an empty race
	// returns an error instead).
	Winner *router.Result `json:"-"`
	Tool   string         `json:"tool"`
	Score  int            `json:"score"`
	// Ratio is Score/Optimal when the optimum is known, else 0.
	Ratio       float64 `json:"ratio,omitempty"`
	Reason      string  `json:"reason"`
	DeadlineHit bool    `json:"deadline_hit,omitempty"`
	ElapsedMS   int64   `json:"elapsed_ms"`
	Racers      []Racer `json:"racers"`
}

// ErrNoResult reports a race in which no tool produced a valid result —
// the only condition the anytime contract surfaces as an error.
var ErrNoResult = errors.New("portfolio: no tool produced a valid result")

// ErrNoAdmissibleTool reports a race that could not start because every
// tool's circuit breaker was open. The serving layer maps it to
// 503 + Retry-After: the client should come back after a cooldown.
var ErrNoAdmissibleTool = errors.New("portfolio: every tool's circuit breaker is open")

// racerDone carries one guarded racer's verdict back to the event loop.
type racerDone struct {
	i       int // index into the launch order
	res     *router.Result
	score   int
	outcome string
	errStr  string
	elapsed time.Duration
}

// Run races the entries over the shared routing context and returns the
// best validated result under the configured budget. The returned error
// is non-nil only when no racer produced a valid result (ErrNoResult),
// no racer was admissible (ErrNoAdmissibleTool), or the caller's own
// context was cancelled.
func Run(ctx context.Context, p *router.Prepared, entries []Entry, opts Options) (*Result, error) {
	if len(entries) == 0 {
		return nil, errors.New("portfolio: no tools registered")
	}
	sp, ctx := obs.Begin(ctx, "portfolio", "race")
	defer sp.End()
	sp.ArgInt("tools", int64(len(entries)))
	sp.ArgInt("deadline_ms", opts.Deadline.Milliseconds())

	// Breaker admission: open breakers are skipped up front, before any
	// budget or context is spent on them.
	reports := make([]Racer, len(entries))
	type racer struct {
		entry Entry
		ei    int // index into entries (and reports)
		probe bool
		start time.Time
	}
	var admitted []racer
	for i, e := range entries {
		reports[i] = Racer{Tool: e.Name, Tier: e.Tier, Outcome: OutcomeHedged}
		if opts.Breakers != nil {
			ok, probe := opts.Breakers.Admit(e.Name)
			if !ok {
				reports[i].Outcome = OutcomeSkipped
				continue
			}
			reports[i].Probe = probe
			admitted = append(admitted, racer{entry: e, ei: i, probe: probe})
		} else {
			admitted = append(admitted, racer{entry: e, ei: i})
		}
	}
	if len(admitted) == 0 {
		sp.Arg("outcome", "no_admissible_tool")
		return nil, fmt.Errorf("%w (%d tools tracked)", ErrNoAdmissibleTool, len(entries))
	}
	// Launch order: tier, then registration order within a tier.
	sort.SliceStable(admitted, func(i, j int) bool { return admitted[i].entry.Tier < admitted[j].entry.Tier })
	minTier := admitted[0].entry.Tier

	raceCtx, cancel := ctx, context.CancelFunc(func() {})
	if opts.Deadline > 0 {
		raceCtx, cancel = context.WithTimeout(ctx, opts.Deadline)
	} else {
		raceCtx, cancel = context.WithCancel(ctx)
	}
	defer cancel()

	// One reserved slot per racer; budgeted routers borrow the idle rest,
	// so hedged racers joining later find only genuinely free slots.
	budget := pool.NewBudget(runtime.GOMAXPROCS(0) - len(admitted))

	start := time.Now()
	resCh := make(chan racerDone, len(admitted))
	launch := func(i int) {
		r := &admitted[i]
		r.start = time.Now()
		go runRacer(raceCtx, p, r.entry, i, opts, budget, resCh)
	}
	dueAt := func(i int) time.Duration {
		return time.Duration(admitted[i].entry.Tier-minTier) * opts.HedgeDelay
	}

	var best *racerDone
	better := func(d *racerDone) bool {
		if best == nil {
			return true
		}
		if d.score != best.score {
			return d.score < best.score
		}
		// Deterministic tie-break: registration order, not arrival order.
		return admitted[d.i].ei < admitted[best.i].ei
	}
	ratioOf := func(score int) float64 {
		if opts.Optimal > 0 {
			return float64(score) / float64(opts.Optimal)
		}
		return 0
	}
	winReason := func(score int) string {
		if opts.Optimal <= 0 {
			return ""
		}
		if score == opts.Optimal {
			return ReasonOptimal
		}
		if opts.Threshold > 0 && float64(score) <= opts.Threshold*float64(opts.Optimal) {
			return ReasonThreshold
		}
		return ""
	}

	launched, finished := 0, 0
	// apply records one racer's verdict: report row, breaker evidence,
	// and the best-so-far. A "cancelled" verdict after the deadline fired
	// IS the deadline expiring on that racer, so it counts as a timeout.
	apply := func(d racerDone, deadlineHit bool) {
		r := &admitted[d.i]
		rep := &reports[r.ei]
		outcome, errStr := d.outcome, d.errStr
		if outcome == OutcomeCancelled && deadlineHit {
			outcome = OutcomeTimeout
			errStr = fmt.Sprintf("race deadline %v expired", opts.Deadline)
		}
		rep.Outcome = outcome
		rep.Err = errStr
		rep.ElapsedMS = d.elapsed.Milliseconds()
		switch outcome {
		case OutcomeOK:
			rep.Score = d.score
			rep.Swaps = d.res.SwapCount
			rep.Depth = d.res.RoutedDepth()
			rep.Ratio = ratioOf(d.score)
			if opts.Breakers != nil {
				opts.Breakers.Record(r.entry.Name, true, r.probe)
			}
			if better(&d) {
				dd := d
				best = &dd
			}
		case OutcomeCancelled:
			// The race ended out from under this racer — the caller's
			// doing, not evidence about the tool.
			if opts.Breakers != nil {
				opts.Breakers.Forfeit(r.entry.Name, r.probe)
			}
		default: // error, timeout, panic, invalid
			if opts.Breakers != nil {
				opts.Breakers.Record(r.entry.Name, false, r.probe)
			}
		}
	}
	finalize := func(reason string, deadlineHit bool) *Result {
		cancel()
		// Verdicts already delivered but not yet read are truthful — a
		// panic that lost the select race is still a panic, and a result
		// that landed exactly at the deadline still counts as best-so-far.
		for finished < launched {
			select {
			case d := <-resCh:
				finished++
				apply(d, deadlineHit)
				continue
			default:
			}
			break
		}
		// Racers genuinely still in flight say nothing about tool health
		// unless the race's own deadline expired on them.
		for i := 0; i < launched; i++ {
			r := &admitted[i]
			if reports[r.ei].Outcome != OutcomeHedged {
				continue // finished; outcome already recorded
			}
			if deadlineHit {
				reports[r.ei].Outcome = OutcomeTimeout
				reports[r.ei].Err = fmt.Sprintf("race deadline %v expired", opts.Deadline)
				reports[r.ei].ElapsedMS = time.Since(r.start).Milliseconds()
				if opts.Breakers != nil {
					opts.Breakers.Record(r.entry.Name, false, r.probe)
				}
			} else {
				reports[r.ei].Outcome = OutcomeCancelled
				reports[r.ei].ElapsedMS = time.Since(r.start).Milliseconds()
				if opts.Breakers != nil {
					opts.Breakers.Forfeit(r.entry.Name, r.probe)
				}
			}
		}
		for i := launched; i < len(admitted); i++ {
			// Never launched: its hedge tier never came due. No breaker
			// evidence either way.
			if opts.Breakers != nil {
				opts.Breakers.Forfeit(admitted[i].entry.Name, admitted[i].probe)
			}
		}
		out := &Result{
			Reason:      reason,
			DeadlineHit: deadlineHit,
			ElapsedMS:   time.Since(start).Milliseconds(),
			Racers:      reports,
		}
		if best != nil {
			out.Winner = best.res
			out.Tool = admitted[best.i].entry.Name
			out.Score = best.score
			out.Ratio = ratioOf(best.score)
			reports[admitted[best.i].ei].Winner = true
		}
		sp.Arg("reason", reason)
		sp.Arg("winner", out.Tool)
		return out
	}
	noResult := func() error {
		var parts []string
		for _, r := range reports {
			if r.Err != "" {
				parts = append(parts, fmt.Sprintf("%s: %s (%s)", r.Tool, r.Err, r.Outcome))
			} else {
				parts = append(parts, fmt.Sprintf("%s: %s", r.Tool, r.Outcome))
			}
		}
		sp.Arg("outcome", "no_result")
		return fmt.Errorf("%w: %s", ErrNoResult, strings.Join(parts, "; "))
	}

	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	defer timer.Stop()

	for {
		// Launch every racer that is due — or, when all launched racers
		// have finished without a winner, pull the next hedge tier forward:
		// waiting out the delay would only waste the remaining budget.
		for launched < len(admitted) {
			if due := dueAt(launched); time.Since(start) < due && finished < launched {
				break
			}
			launch(launched)
			launched++
		}
		if finished == len(admitted) {
			break // every racer reported; settle on the best
		}
		var timerC <-chan time.Time
		if launched < len(admitted) {
			timer.Reset(dueAt(launched) - time.Since(start))
			timerC = timer.C
		}
		select {
		case d := <-resCh:
			finished++
			apply(d, false)
			if d.outcome == OutcomeOK {
				if reason := winReason(d.score); reason != "" {
					return finalize(reason, false), nil
				}
			}
		case <-timerC:
			// Next hedge tier came due; loop back to the launch step.
		case <-raceCtx.Done():
			if err := ctx.Err(); err != nil {
				// The caller abandoned the race: hard error, exactly like
				// the evaluation pipeline's cancellation semantics.
				finalize(ReasonDeadline, false)
				sp.Arg("outcome", "cancelled")
				return nil, err
			}
			// The race deadline fired: degrade to the best result so far
			// (finalize's drain may still collect one that arrived at the
			// deadline instant).
			res := finalize(ReasonDeadline, true)
			if res.Winner == nil {
				return nil, noResult()
			}
			return res, nil
		}
	}
	res := finalize(ReasonComplete, false)
	if res.Winner == nil {
		return nil, noResult()
	}
	return res, nil
}

// runRacer runs one racer through router.Guard under a traced
// "portfolio"/"racer" span, so a wedged tool is abandoned at its
// timeout, a panic is contained to this racer, and results are
// validated and optimum-checked here, in parallel with the other
// racers.
func runRacer(raceCtx context.Context, p *router.Prepared, e Entry, i int, opts Options, budget *pool.Budget, resCh chan<- racerDone) {
	rsp, rctx := obs.Begin(raceCtx, "portfolio", "racer")
	rsp.Arg("tool", e.Name)
	start := time.Now()
	out := router.Guard(rctx, router.Attempt{
		Tool:     e.Name,
		Make:     e.Make,
		Seed:     opts.Seed,
		Prepared: p,
		Timeout:  opts.ToolTimeout,
		Budget:   budget,
		Score:    opts.Metric.Achieved,
		Optimal:  opts.Optimal,
		Span:     &rsp,
	})
	d := racerDone{i: i, res: out.Result, score: out.Score, outcome: out.Kind, elapsed: time.Since(start)}
	switch out.Kind {
	case OutcomeOK:
		rsp.ArgInt("score", int64(out.Score))
	case OutcomeCancelled:
		// The race ended first; apply words the report.
	default:
		d.errStr = out.Err.Error()
	}
	// The span ends before the verdict is delivered, so a race that
	// returns on this verdict has already recorded it.
	rsp.End()
	resCh <- d // buffered to len(admitted); never blocks
}
