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
	Stats         core.Stats
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

// AnalyzeWCRT compiles the system with a measuring observer for req and
// computes the worst-case response time as the supremum of the observer
// clock over all reachable "seen" states. It is the one-requirement special
// case of AnalyzeAll: one observer in the network, one supremum query on the
// sweep.
//
// With copts/opts zero values this is the paper's exhaustive analysis. For
// intractable cases set opts.MaxStates and opts.Order (DFS or RDFS) to
// reproduce the paper's "structured testing" mode: the result is then a
// lower bound (Exact=false).
func AnalyzeWCRT(sys *System, req *Requirement, copts Options, opts core.Options) (WCRTResult, error) {
	all, err := AnalyzeAll(sys, []*Requirement{req}, copts, opts)
	if err != nil {
		return WCRTResult{}, err
	}
	return all.Results[0], nil
}

// AllResult is the outcome of AnalyzeAll: every requirement's worst-case
// response time measured in ONE exploration of one compiled network.
type AllResult struct {
	// Results holds one WCRT per requirement, parallel to the reqs argument.
	// Each result's Stats equal the shared Stats below — there is only one
	// sweep; do not sum them across requirements.
	Results []WCRTResult
	// Stats is the effort of the single shared exploration.
	Stats core.Stats
}

// AnalyzeAll compiles the system ONCE with a measuring observer per
// requirement (CompileAll) and computes every worst-case response time from
// a single exploration: one SupClockQuery per observer clock attached to one
// core.RunQueries sweep. This replaces k requirements × 1 exploration with 1
// exploration — the dominant cost of the paper's Table 1/2 reproduction.
//
// Verdicts and bounds match per-requirement AnalyzeWCRT exactly: each
// observer in the shared network is a pure listener, so its measured
// supremum equals the one it measures compiled alone. Stats differ, of
// course — the shared network carries every observer. For deadline verdicts
// over the same sweep, test each result with WCRTResult.MeetsDeadline /
// ViolatesDeadline.
//
// opts.MaxStates budgets the single shared sweep; a truncated sweep
// degrades every requirement to a lower bound (Exact=false), as in
// AnalyzeWCRT.
func AnalyzeAll(sys *System, reqs []*Requirement, copts Options, opts core.Options) (*AllResult, error) {
	cs, err := CompileAll(sys, reqs, copts)
	if err != nil {
		return nil, err
	}
	return cs.Analyze(opts)
}

// Analyze computes every requirement's worst-case response time from the
// already-compiled set with ONE exploration: one SupClockQuery per observer
// clock on one core.RunQueries sweep. It is the analysis half of AnalyzeAll,
// split out so callers that keep compiled networks (internal/serve's cache,
// icrns.Cells' sweep and its fallback run) can pay compilation once and run
// any number of independent explorations against the same CompiledSet — the
// set is immutable after CompileAll and safe for concurrent Analyze calls,
// each of which builds its own checker state.
func (cs *CompiledSet) Analyze(opts core.Options) (*AllResult, error) {
	checker, err := core.NewChecker(cs.Net)
	if err != nil {
		return nil, err
	}
	reqs := cs.Reqs
	sups := make([]*core.SupClockQuery, len(reqs))
	queries := make([]core.Query, len(reqs))
	for i := range reqs {
		sups[i] = core.NewSupClockQuery(cs.Obs[i].Y.ID, cs.AtSeen(i))
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
		res := WCRTResult{Req: req, Stats: stats}
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
// observed", exactly like a truncated CheckSafety pass.
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

// MeetsDeadline reports whether the requirement provably satisfies
// "response < deadlineMS": the bound is exact and strictly below the
// deadline. A truncated or beyond-horizon result never proves a deadline.
func (r WCRTResult) MeetsDeadline(deadlineMS *big.Rat) bool {
	return r.Exact && !r.ViolatesDeadline(deadlineMS)
}

// WitnessForResult materializes a critical-instant trace for an
// already-computed WCRT: one reachability sweep to a seen state whose
// observer clock reaches the known bound, with no re-measurement. Callers
// holding batch results (AnalyzeAll, or a cached service verdict) get the
// trace for the cost of a single extra exploration. It honors opts.Workers:
// the engine reconstructs witness traces from its per-worker parent logs.
func WitnessForResult(sys *System, req *Requirement, res WCRTResult, copts Options, opts core.Options) (string, error) {
	c, err := Compile(sys, req, copts)
	if err != nil {
		return "", err
	}
	checker, err := core.NewChecker(c.Net)
	if err != nil {
		return "", err
	}
	// The witness state allows the observer clock to reach the bound:
	// its upper bound is at least (≤ value) — or (< value) when the
	// supremum is approached rather than attained.
	bound := new(big.Rat).Mul(res.MS, new(big.Rat).SetInt(c.Scale))
	if !bound.IsInt() {
		return "", fmt.Errorf("arch: internal: WCRT %s not integral in model units", res.MS.RatString())
	}
	v := bound.Num().Int64()
	atSeen, y := c.AtSeen(0), c.Obs[0].Y.ID
	found, trace, _, err := checker.Reachable(func(s *core.State) bool {
		if !atSeen(s) {
			return false
		}
		sup := s.Zone.Sup(int(y))
		if res.Attained {
			return sup >= dbm.LE(v)
		}
		return sup >= dbm.LT(v)
	}, opts)
	if err != nil {
		return "", err
	}
	if !found {
		return "", fmt.Errorf("arch: no witness found at the computed bound (truncated search?)")
	}
	return core.FormatTrace(c.Net, trace), nil
}

// DeadlockResult is the outcome of CheckDeadlockFree at the architecture
// level.
type DeadlockResult struct {
	// Free reports whether no reachable configuration of the compiled
	// system (tasks, schedulers, buses, environment, observer) deadlocks.
	Free bool
	// Trace is a formatted symbolic run into the deadlocked configuration
	// when Free is false.
	Trace string
	Stats core.Stats
}

// CheckDeadlockFree verifies that the compiled system has no reachable
// deadlocked configuration — a modeling-sanity check for architecture
// descriptions (a deadlock here means the scheduler, bus, or environment
// automata wedge each other, e.g. an event model that outpaces a full
// queue). The requirement only selects which observer is compiled in; the
// verdict concerns the whole system. opts.Workers parallelizes the search,
// witness trace included.
func CheckDeadlockFree(sys *System, req *Requirement, copts Options, opts core.Options) (DeadlockResult, error) {
	c, err := Compile(sys, req, copts)
	if err != nil {
		return DeadlockResult{}, err
	}
	checker, err := core.NewChecker(c.Net)
	if err != nil {
		return DeadlockResult{}, err
	}
	res, err := checker.CheckDeadlockFree(opts)
	if err != nil {
		return DeadlockResult{}, err
	}
	out := DeadlockResult{Free: res.Free, Stats: res.Stats}
	if !res.Free {
		out.Trace = core.FormatTrace(c.Net, res.Witness)
	}
	return out, nil
}

// VerifyDeadline checks the timeliness requirement "response < deadlineMS"
// by model checking AG(seen → y < deadline) directly — the paper's
// Property 1 with the deadline as the constant. On violation it returns a
// counterexample trace leading to a response that reaches the deadline.
func VerifyDeadline(sys *System, req *Requirement, deadlineMS *big.Rat,
	copts Options, opts core.Options) (bool, string, error) {
	copts = copts.withDefaults()
	// The horizon must cover the deadline so extrapolation keeps the bound.
	d := new(big.Rat).Set(deadlineMS)
	dCeil := new(big.Int).Add(d.Num(), new(big.Int).Sub(d.Denom(), big.NewInt(1)))
	dCeil.Div(dCeil, d.Denom())
	if copts.HorizonMS < dCeil.Int64() {
		copts.HorizonMS = dCeil.Int64() * 2
	}
	c, err := Compile(sys, req, copts)
	if err != nil {
		return false, "", err
	}
	checker, err := core.NewChecker(c.Net)
	if err != nil {
		return false, "", err
	}
	bound := new(big.Rat).Mul(deadlineMS, new(big.Rat).SetInt(c.Scale))
	if !bound.IsInt() {
		return false, "", fmt.Errorf("arch: deadline %s ms is not integral in model units; refine the time base",
			deadlineMS.RatString())
	}
	v := bound.Num().Int64()
	atSeen, y := c.AtSeen(0), c.Obs[0].Y.ID
	res, err := checker.CheckSafety(core.Property{
		Desc: fmt.Sprintf("%s < %s ms", req.Name, deadlineMS.RatString()),
		Holds: func(s *core.State) bool {
			if !atSeen(s) {
				return true
			}
			return s.Zone.Sup(int(y)) < dbm.LE(v)
		},
	}, opts)
	if err != nil {
		return false, "", err
	}
	if res.Holds {
		return true, "", nil
	}
	return false, core.FormatTrace(c.Net, res.Counterexample), nil
}
