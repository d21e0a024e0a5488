package arch

import (
	"fmt"
	"math/big"

	"repro/internal/core"
	"repro/internal/dbm"
)

// WCRTResult is the worst-case response time of one requirement.
type WCRTResult struct {
	Req *Requirement
	// MS is the response-time bound in exact milliseconds.
	MS *big.Rat
	// Attained reports whether the bound is reached by some run (≤) or only
	// approached (<).
	Attained bool
	// Exact reports whether the bound is the true supremum: the exploration
	// completed and stayed within the observation horizon. When false, MS
	// is only a lower bound on the WCRT — the paper's "greater than" rows.
	Exact bool
	// BeyondHorizon reports that some response exceeded the observation
	// horizon (raise Options.HorizonMS to measure it).
	BeyondHorizon bool
	// Witness is the critical-instant trace from the sweep that measured MS:
	// a run of cs.Net to a state where the observer has seen a response with
	// its clock's upper bound at MS (strict unless Attained), or beyond the
	// horizon. AnalyzeTraced sets it, Analyze on a BeyondHorizon result only.
	Witness []core.TraceStep
	Stats   core.Stats
}

// String renders the result the way the paper's tables do: exact values as
// plain milliseconds, inexact ones as lower bounds.
func (r WCRTResult) String() string {
	v := r.MS.FloatString(3)
	if r.Exact {
		return v
	}
	return "> " + v
}

// AllResult is the outcome of CompiledSet.Analyze: every requirement's
// worst-case response time measured in ONE exploration of one compiled
// network.
type AllResult struct {
	// Results holds one WCRT per requirement, parallel to CompiledSet.Reqs.
	// Each result's Stats equal the shared Stats below — there is only one
	// sweep; do not sum them across requirements.
	Results []WCRTResult
	// Stats is the effort of the single shared exploration.
	Stats core.Stats
}

// Analyze computes every requirement's worst-case response time as the
// supremum of its observer clock over all reachable "seen" states, from ONE
// exploration: one SupClockQuery per observer clock on one core.RunQueries
// sweep. This replaces k requirements × 1 exploration with 1 exploration —
// the dominant cost of the paper's Table 1/2 reproduction. Each observer in
// the shared network is a pure listener, so its measured supremum equals the
// one it measures compiled alone; the Stats differ, of course — the shared
// network carries every observer.
//
// With a zero opts this is the paper's exhaustive analysis. For intractable
// cases set opts.MaxStates and opts.Order (DFS or RDFS) to reproduce the
// paper's "structured testing" mode: a truncated sweep degrades every
// requirement to a lower bound (Exact=false).
//
// The set is immutable after CompileAll and safe for concurrent Analyze
// calls, each of which builds its own checker state, so callers that keep
// compiled networks (internal/serve's cache, icrns.Cells' sweep and its
// fallback run) pay compilation once and run any number of explorations.
func (cs *CompiledSet) Analyze(opts core.Options) (*AllResult, error) { return cs.analyze(opts, false) }

// AnalyzeTraced is Analyze with each seen result's critical-instant trace
// (WCRTResult.Witness), replayed from the same sweep: no second search.
func (cs *CompiledSet) AnalyzeTraced(opts core.Options) (*AllResult, error) {
	return cs.analyze(opts, true)
}

func (cs *CompiledSet) analyze(opts core.Options, traced bool) (*AllResult, error) {
	checker, err := core.NewChecker(cs.Net)
	if err != nil {
		return nil, err
	}
	reqs := cs.Reqs
	sups := make([]*core.SupClockQuery, len(reqs))
	queries := make([]core.Query, len(reqs))
	for i := range reqs {
		sups[i] = core.NewSupClockQuery(cs.Obs[i].Y.ID, cs.AtSeen(i))
		sups[i].Witness = traced
		queries[i] = sups[i]
	}
	stats, err := checker.RunQueries(opts, queries...)
	if err != nil {
		return nil, err
	}
	out := &AllResult{Results: make([]WCRTResult, len(reqs)), Stats: stats}
	for i, req := range reqs {
		sup := sups[i].Result
		if !sup.Seen && !sup.Truncated {
			return nil, fmt.Errorf("arch: requirement %s: no measured response is reachable", req.Name)
		}
		res := WCRTResult{Req: req, Stats: stats, Witness: sup.Witness}
		switch {
		case sup.Unbounded:
			res.MS = cs.UnitsToMS(cs.Horizons[i])
			res.BeyondHorizon = true
		default:
			res.MS = cs.UnitsToMS(sup.Max.Value())
			res.Attained = sup.Max.Weak()
			res.Exact = !sup.Truncated
		}
		out.Results[i] = res
	}
	return out, nil
}

// ViolatesDeadline reports whether some measured response reaches or
// exceeds the deadline — the negation of the paper's Property 1,
// AG(seen → y < deadline), evaluated against the measured supremum. The
// observation horizon must cover the deadline for a BeyondHorizon result to
// soundly count as a violation (VerifyDeadline and icrns.Verify arrange
// that). On a truncated (non-Exact) result, false means only "no violation
// observed", exactly like a truncated VerifyDeadline that found no
// counterexample: a deadline is proven met by Exact && !ViolatesDeadline.
func (r WCRTResult) ViolatesDeadline(deadlineMS *big.Rat) bool {
	if r.BeyondHorizon {
		return true
	}
	cmp := r.MS.Cmp(deadlineMS)
	if r.Attained {
		return cmp >= 0 // the bound is reached: y = MS ≥ deadline occurs
	}
	return cmp > 0 // the bound is only approached: y < MS always
}

// DeadlockFree verifies that the compiled system has no reachable
// deadlocked configuration — a modeling-sanity check for architecture
// descriptions (a deadlock here means the scheduler, bus, or environment
// automata wedge each other, e.g. an event model that outpaces a full
// queue). The verdict concerns the whole network, observers included.
// Format a deadlock witness with core.FormatTrace(cs.Net, res.Witness).
func (cs *CompiledSet) DeadlockFree(opts core.Options) (core.DeadlockResult, error) {
	checker, err := core.NewChecker(cs.Net)
	if err != nil {
		return core.DeadlockResult{}, err
	}
	q := core.NewDeadlockQuery()
	if _, err := checker.RunQueries(opts, q); err != nil {
		return core.DeadlockResult{}, err
	}
	return q.Result, nil
}

// HorizonCovering returns the observation horizon horizonMS raised, when it
// falls below the deadline, to twice the deadline rounded up to whole
// milliseconds: an observer whose horizon covers the deadline keeps the
// bound through extrapolation, so a BeyondHorizon result soundly counts as a
// violation. VerifyDeadline and icrns.Verify apply it.
func HorizonCovering(horizonMS int64, deadlineMS *big.Rat) int64 {
	d := new(big.Int).Add(deadlineMS.Num(), new(big.Int).Sub(deadlineMS.Denom(), big.NewInt(1)))
	d.Div(d, deadlineMS.Denom())
	if horizonMS < d.Int64() {
		return d.Int64() * 2
	}
	return horizonMS
}

// VerifyDeadline checks the timeliness requirement "response < deadlineMS"
// by model checking AG(seen → y < deadline) directly — the paper's
// Property 1 with the deadline as the constant, which must be a whole number
// of model time units (Timing.Scale). On violation it returns a
// counterexample trace leading to a response that reaches the deadline.
func VerifyDeadline(sys *System, req *Requirement, deadlineMS *big.Rat,
	copts Options, opts core.Options) (bool, string, error) {
	// The effective horizon of req (HorizonMSFor overrides HorizonMS) must
	// cover the deadline so extrapolation keeps the bound.
	copts = copts.withDefaults()
	copts.HorizonMS, copts.HorizonMSFor = HorizonCovering(copts.horizonMS(req), deadlineMS), nil
	c, err := CompileAll(sys, []*Requirement{req}, copts)
	if err != nil {
		return false, "", err
	}
	checker, err := core.NewChecker(c.Net)
	if err != nil {
		return false, "", err
	}
	d, err := toUnits(deadlineMS, c.Scale, timeField{kind: "requirement", name: req.Name, field: "deadline"})
	if err != nil {
		return false, "", err
	}
	// AG(seen → y < d) is asked as the reachability of its negation: a seen
	// state whose observer clock can reach d.
	atSeen, y := c.AtSeen(0), int(c.Obs[0].Y.ID)
	q := core.NewReachQuery(func(s *core.State) bool { return atSeen(s) && s.Zone.Sup(y) >= dbm.LE(d) })
	if _, err := checker.RunQueries(opts, q); err != nil {
		return false, "", err
	}
	if !q.Found {
		return true, "", nil
	}
	return false, core.FormatTrace(c.Net, q.Trace), nil
}
