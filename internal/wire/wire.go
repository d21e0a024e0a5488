// Package wire defines the JSON wire format shared by the taserved analysis
// service (internal/serve) and the -json modes of the archcheck and tacheck
// CLIs. Both sides build their results through the encoders here — one
// package owns the shapes, so the CLI output and the service responses
// cannot drift apart. The format carries exact values: worst-case response
// times are rationals rendered with RatString (bit-comparable across runs),
// clock suprema carry their strictness, and exploration Stats mirror
// core.Stats field for field.
package wire

import (
	"encoding/json"
	"fmt"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/ta"
)

// Encode renders a wire value as the bytes every surface emits for it — a
// taserved result body, `archcheck -json`, `tacheck -json`: two-space indent,
// trailing newline, encoding/json's default escaping. It is the only encoder
// of verdict bytes, which keeps the no-drift contract literal: diffing CLI
// output against a served result body succeeds (duration_ns aside), and a
// fleet relays the bytes verbatim rather than re-encoding them.
func Encode(v any) ([]byte, error) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// Stats mirrors core.Stats on the wire.
type Stats struct {
	Stored      int   `json:"stored"`
	Popped      int   `json:"popped"`
	Transitions int   `json:"transitions"`
	Deadlocks   int   `json:"deadlocks"`
	Truncated   bool  `json:"truncated"`
	DurationNS  int64 `json:"duration_ns"`
}

// FromStats converts exploration statistics to their wire form.
func FromStats(s core.Stats) Stats {
	return Stats{
		Stored:      s.Stored,
		Popped:      s.Popped,
		Transitions: s.Transitions,
		Deadlocks:   s.Deadlocks,
		Truncated:   s.Truncated,
		DurationNS:  s.Duration.Nanoseconds(),
	}
}

// WCRT is one requirement's worst-case response time verdict.
type WCRT struct {
	Req string `json:"req"`
	// MS is the exact response-time bound in milliseconds as a rational
	// string ("15", "125/4") — bit-comparable, no float rounding.
	MS string `json:"ms"`
	// Display renders the bound the way the paper's tables do: plain
	// milliseconds for exact values, "> v" for lower bounds.
	Display       string `json:"display"`
	Attained      bool   `json:"attained"`
	Exact         bool   `json:"exact"`
	BeyondHorizon bool   `json:"beyond_horizon"`
}

// FromWCRT converts one arch verdict to its wire form.
func FromWCRT(r arch.WCRTResult) WCRT {
	return WCRT{
		Req:           r.Req.Name,
		MS:            r.MS.RatString(),
		Display:       r.String(),
		Attained:      r.Attained,
		Exact:         r.Exact,
		BeyondHorizon: r.BeyondHorizon,
	}
}

// ArchResponse is the result of one architecture analysis: every
// requirement's WCRT from one shared exploration.
type ArchResponse struct {
	Results []WCRT `json:"results"`
	// Stats is the effort of the single shared sweep (not a per-requirement
	// sum; all requirements ride one exploration).
	Stats Stats `json:"stats"`
}

// FromAllResult converts a batch analysis outcome to its wire form.
func FromAllResult(all *arch.AllResult) ArchResponse {
	out := ArchResponse{Results: make([]WCRT, len(all.Results)), Stats: FromStats(all.Stats)}
	for i, r := range all.Results {
		out.Results[i] = FromWCRT(r)
	}
	return out
}

// TAQuery is one query of a timed-automata model submission. Kind selects
// the query; the other fields parameterize it:
//
//	reach    — Pred (a state predicate, ta.ParsePred; the README's tacheck
//	           section states its grammar): is a matching state reachable?
//	           Verdict true = reachable, Trace is the witness.
//	safety   — Pred: does AG(Pred) hold? Verdict true = holds, Trace is the
//	           counterexample when it does not.
//	sup      — Clock and Pred: the supremum of the clock over states
//	           matching Pred (the WCRT measurement).
//	deadlock — no parameters: is the model deadlock-free? Verdict true =
//	           free, Trace is the witness when it is not.
type TAQuery struct {
	Kind  string `json:"kind"`
	Pred  string `json:"pred,omitempty"`
	Clock string `json:"clock,omitempty"`
}

// TAQueryResult is the answer to one TAQuery, echoing its spec.
type TAQueryResult struct {
	Kind  string `json:"kind"`
	Pred  string `json:"pred,omitempty"`
	Clock string `json:"clock,omitempty"`
	// Verdict is the boolean answer (see TAQuery); for sup queries it
	// reports whether any state matched Pred.
	Verdict bool `json:"verdict"`
	// Sup renders the supremum bound with exact strictness ("<=42", "<10",
	// "inf"); empty for other kinds or when no state matched.
	Sup string `json:"sup,omitempty"`
	// SupValue/SupAttained decompose Sup for machine use: the bound value
	// and whether it is attained (≤) rather than approached (<). Never
	// elided, so a legitimate supremum of 0 (or a strict bound) stays
	// distinguishable from an absent answer; Sup empty + Verdict false mark
	// the no-value cases.
	SupValue    int64 `json:"sup_value"`
	SupAttained bool  `json:"sup_attained"`
	// SupUnbounded reports the supremum escaped the extrapolation horizon
	// (raise max_const to measure it).
	SupUnbounded bool `json:"sup_unbounded,omitempty"`
	// Trace is the formatted symbolic run witnessing the verdict, when one
	// exists (reach witness, safety counterexample, deadlock witness,
	// unbounded-sup witness).
	Trace string `json:"trace,omitempty"`
}

// TAResponse is the result of one timed-automata submission: every query
// answered from one exploration.
type TAResponse struct {
	Queries []TAQueryResult `json:"queries"`
	Stats   Stats           `json:"stats"`
}

// ParseTAModel parses .ta source for the given query set, registering
// maxConst (when positive) as the extrapolation horizon of every sup query's
// clock before finalization — the horizon must be known to the network before
// it freezes, so model parsing and query specs travel together. An unknown
// sup clock fails here, with or without a horizon.
func ParseTAModel(src string, specs []TAQuery, maxConst int64) (*ta.Network, error) {
	return ta.ParseWithHook(src, func(n *ta.Network) error {
		for _, q := range specs {
			if q.Kind != "sup" {
				continue
			}
			c, err := supClock(n, q.Clock)
			if err != nil {
				return err
			}
			if maxConst > 0 {
				n.EnsureMaxConst(c.ID, maxConst)
			}
		}
		return nil
	})
}

// supClock resolves a sup query's clock.
func supClock(n *ta.Network, name string) (ta.Clock, error) {
	c, ok := n.ClockByName(name)
	if !ok {
		return c, fmt.Errorf("wire: unknown clock %q", name)
	}
	return c, nil
}

// statePred parses a query predicate into the engine's form.
func statePred(n *ta.Network, s string) (func(*core.State) bool, error) {
	p, err := ta.ParsePred(n, s)
	if err != nil {
		return nil, err
	}
	return func(st *core.State) bool { return p.Holds(st.Locs, st.Vars) }, nil
}

// taSlot pairs one spec with the concrete query answering it.
type taSlot struct {
	spec  TAQuery
	reach *core.ReachQuery // reach, and safety (negated predicate)
	sup   *core.SupClockQuery
	dead  *core.DeadlockQuery
}

// TARun binds a TAQuery list to the core queries that answer it in ONE
// exploration. Build it with NewTARun, run Queries() through
// core.Checker.RunQueries, then encode with Response — the CLI and the
// service both follow exactly this path.
type TARun struct {
	net   *ta.Network
	slots []taSlot
}

// NewTARun compiles the query specs against the network. Every spec becomes
// one core query; safety queries reach their negation so the witness is the
// counterexample.
func NewTARun(net *ta.Network, specs []TAQuery) (*TARun, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("wire: no queries")
	}
	r := &TARun{net: net, slots: make([]taSlot, len(specs))}
	for i, spec := range specs {
		slot := taSlot{spec: spec}
		switch spec.Kind {
		case "reach":
			pred, err := statePred(net, spec.Pred)
			if err != nil {
				return nil, err
			}
			slot.reach = core.NewReachQuery(pred)
		case "safety":
			pred, err := statePred(net, spec.Pred)
			if err != nil {
				return nil, err
			}
			slot.reach = core.NewReachQuery(func(s *core.State) bool { return !pred(s) })
		case "sup":
			clock, err := supClock(net, spec.Clock)
			if err != nil {
				return nil, err
			}
			pred, err := statePred(net, spec.Pred)
			if err != nil {
				return nil, err
			}
			slot.sup = core.NewSupClockQuery(clock.ID, pred)
		case "deadlock":
			slot.dead = core.NewDeadlockQuery()
		default:
			return nil, fmt.Errorf("wire: query %d: unknown kind %q (want reach, safety, sup, or deadlock)", i, spec.Kind)
		}
		r.slots[i] = slot
	}
	return r, nil
}

// Queries returns the core query set, in spec order, for one RunQueries call.
func (r *TARun) Queries() []core.Query {
	qs := make([]core.Query, len(r.slots))
	for i, slot := range r.slots {
		switch {
		case slot.reach != nil:
			qs[i] = slot.reach
		case slot.sup != nil:
			qs[i] = slot.sup
		default:
			qs[i] = slot.dead
		}
	}
	return qs
}

// Response encodes the answered queries. Call strictly after RunQueries
// returned.
func (r *TARun) Response(stats core.Stats) TAResponse {
	out := TAResponse{Queries: make([]TAQueryResult, len(r.slots)), Stats: FromStats(stats)}
	for i, slot := range r.slots {
		res := TAQueryResult{Kind: slot.spec.Kind, Pred: slot.spec.Pred, Clock: slot.spec.Clock}
		switch slot.spec.Kind {
		case "reach":
			res.Verdict = slot.reach.Found
			if slot.reach.Found {
				res.Trace = core.FormatTrace(r.net, slot.reach.Trace)
			}
		case "safety":
			res.Verdict = !slot.reach.Found
			if slot.reach.Found {
				res.Trace = core.FormatTrace(r.net, slot.reach.Trace)
			}
		case "sup":
			sup := slot.sup.Result
			res.Verdict = sup.Seen
			switch {
			case !sup.Seen:
			case sup.Unbounded:
				res.SupUnbounded = true
				res.Sup = "inf"
				res.Trace = core.FormatTrace(r.net, sup.Witness)
			default:
				res.Sup = sup.Max.String()
				res.SupValue = sup.Max.Value()
				res.SupAttained = sup.Max.Weak()
			}
		case "deadlock":
			res.Verdict = slot.dead.Result.Free
			if !slot.dead.Result.Free {
				res.Trace = core.FormatTrace(r.net, slot.dead.Result.Witness)
			}
		}
		out.Queries[i] = res
	}
	return out
}
