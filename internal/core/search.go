package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/ta"
)

// Order selects the exploration strategy of the waiting list.
type Order int

const (
	// BFS explores breadth-first (shortest counterexamples).
	BFS Order = iota
	// DFS explores depth-first (the paper's "df" option).
	DFS
	// RDFS explores depth-first with randomly shuffled successors
	// (the paper's "rdf" option, used as a structured-testing mode).
	RDFS
)

// orderNames is the one table between Order values and their spellings on
// the CLIs' -order flags and the service's order option.
var orderNames = [...]string{BFS: "bfs", DFS: "df", RDFS: "rdf"}

func (o Order) String() string {
	if o < 0 || int(o) >= len(orderNames) {
		return "?"
	}
	return orderNames[o]
}

// ParseOrder is the inverse of Order.String; the empty string selects BFS.
func ParseOrder(s string) (Order, error) {
	if s == "" {
		return BFS, nil
	}
	for o, name := range orderNames {
		if s == name {
			return Order(o), nil
		}
	}
	return BFS, fmt.Errorf("unknown order %q (want bfs, df, or rdf)", s)
}

// Options configures an exploration.
type Options struct {
	// Order is the search order (default BFS).
	Order Order
	// Seed seeds the RDFS shuffling; the same seed gives the same sweep.
	Seed int64
	// MaxStates truncates the exploration after storing this many states;
	// 0 means unlimited. A truncated run turns exact answers into bounds,
	// exactly as the paper's depth-first "structured testing" mode does. The
	// admitted subset, and with it every truncated bound, is a function of
	// the network, Order, Seed and MaxStates alone.
	MaxStates int
	// StateBudget is the hard counterpart of MaxStates: admitting more than
	// this many unique states fails the run with ErrStateBudget and partial
	// Stats (the Checker stays reusable). 0 means unlimited. Use MaxStates
	// when a truncated answer is still useful as a bound; use StateBudget
	// when exceeding the cap must be an error the caller cannot miss.
	StateBudget int
	// MaxBytes bounds the run's zone memory: once the full matrices the
	// run's ctxs have carved (each recycled with its State) plus the passed
	// store's actual footprint — entries with their packed discrete keys,
	// zone-record segments and packed zone buffers (passedSet.bytes) —
	// exceed this many bytes, the run fails with ErrMemoryBudget and partial
	// Stats via the same between-expansions abort point as Context. 0 means
	// unlimited. A waiting state's zone is charged as the packed payload in
	// that footprint — the one copy there is of it — and matrices only as
	// the ctxs' scratch.
	// Accounting (budget.go) adds nothing to the visitor path; frontier
	// nodes, parent logs and query accumulators are not counted.
	MaxBytes int64
	// Workers selects nothing: every run is the one admitting loop on the
	// calling goroutine (explore.go), and every count, verdict, trace and
	// encoded byte is the same at any value and any GOMAXPROCS. A
	// breadth-first sweep past its first 1,024 expansions uses a second core
	// when GOMAXPROCS allows: a lookahead helper goroutine fires the
	// successors of the next states while the calling goroutine admits, and
	// the sweep — counts, order, traces — is the one an inline run makes;
	// visitors and predicates run on the calling goroutine only (explore.go,
	// "Lookahead"). Its one remaining setter is the benchmark (benchmark/);
	// ROADMAP item 1 ("Let go of the worker count") lets the field go.
	Workers int

	// Context, when it can be done, aborts the exploration cooperatively:
	// once it is canceled or its deadline passes, the run stops within a
	// bounded number of expansions and returns AbortErr's answer,
	// ErrCanceled or ErrDeadlineExceeded (the deadline wins when both
	// fired), with the partial Stats accumulated so far. The abort honors the
	// pool and parent-log ownership invariants — the loop aborts only between
	// expansions, so every state is either recycled through its owning succCtx
	// or abandoned to the garbage collector with the per-run pools; nothing
	// dangles into a later run (the run's slabs are released to later runs as
	// raw bytes, after the loop has returned, like those of a completed run).
	// It sits on Options, not on the methods, because RunQueries, Analyze and
	// Explore keep the signatures their callers use. nil, or a context that is
	// never done, costs the sweep nothing. A served job passes its own
	// (internal/serve).
	Context context.Context
	// Monitor, when non-nil, publishes live progress of the run: states
	// stored/popped/transitions and the frontier backlog, sampled lock-free
	// from the run's relaxed counters (see Monitor.Snapshot). A Monitor
	// observes one exploration at a time.
	Monitor *Monitor

	// passed, when non-nil, replaces the run's passed-state store. Test-only:
	// the compact-store oracle injects a full-DBM reference implementation to
	// differentially check admission (store_oracle_test.go).
	passed passedSet
	// lookahead, when set, overrides when a breadth-first sweep engages its lookahead helper (explore.go, "Lookahead"). Test-only:
	// the differential tests run every sweep with it forced on from the
	// first expansion and forced off.
	lookahead lookaheadMode
}

// Stats reports exploration effort.
type Stats struct {
	// Stored counts admissions: successors (and the initial state) no stored
	// zone included when they arrived. Some are pruned later, covered by a
	// larger admission; Live counts what is left.
	Stored int
	// Live counts the zones still stored when the sweep ended, Stored minus
	// the prunes.
	Live int
	// Popped counts states taken from the waiting list and expanded.
	Popped int
	// Transitions counts generated successor states, including subsumed ones.
	Transitions int
	// Deadlocks counts explored states without any action successor.
	Deadlocks int
	// Truncated reports whether MaxStates stopped the exploration early.
	Truncated bool
	// Duration is the wall-clock exploration time.
	Duration time.Duration
}

func (s Stats) String() string {
	return fmt.Sprintf("stored=%d popped=%d transitions=%d truncated=%v in %v",
		s.Stored, s.Popped, s.Transitions, s.Truncated, s.Duration.Round(time.Millisecond))
}

// Checker runs symbolic analyses over one finalized network.
type Checker struct {
	net *ta.Network
	eng *engine
}

// NewChecker returns a checker for a finalized network.
func NewChecker(net *ta.Network) (*Checker, error) {
	eng, err := newEngine(net)
	if err != nil {
		return nil, err
	}
	return &Checker{net: net, eng: eng}, nil
}

// ExploreResult is the outcome of a reachability exploration.
type ExploreResult struct {
	Stats
	// Found reports whether the visitor stopped the search.
	Found bool
	// FoundState is the state the visitor stopped at: a caller-owned copy,
	// valid after the call regardless of state recycling.
	FoundState *State
	// Trace is the path from the initial state to FoundState. Its states are
	// freshly materialized by trace replay and are owned by the caller.
	Trace []TraceStep
}

// Explore performs symbolic reachability from the initial state. The
// visitor is invoked once for every newly stored (non-subsumed) state,
// including the initial one, on the calling goroutine; returning true stops
// the search with Found set and a trace to the state. A nil visitor explores
// the full reachable zone graph.
//
// The visitor must not retain a state (or its zone) beyond the call: the
// engine recycles every fully-expanded state, so a retained pointer is
// silently overwritten with later states' data. FoundState and the replayed
// trace states are exempt.
func (c *Checker) Explore(opts Options, visit func(*State) bool) (ExploreResult, error) {
	var rq *ReachQuery
	var queries []Query
	if visit != nil {
		rq = NewReachQuery(visit)
		queries = []Query{rq}
	}
	res, err := c.explore(opts, queries)
	if err != nil {
		return res, err
	}
	if rq != nil && rq.Found {
		res.Found = true
		res.FoundState = rq.FoundState
		res.Trace = rq.Trace
	}
	return res, nil
}
