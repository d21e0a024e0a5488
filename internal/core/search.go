package core

import (
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
	// Order is the search order (default BFS). The parallel frontier always
	// expands its local deque depth-first and steals breadth-first, so with
	// Workers > 1 the field only shapes per-worker successor handling (RDFS
	// still shuffles) and the global order is nondeterministic.
	Order Order
	// Seed seeds the RDFS shuffling and the parallel frontier's victim
	// selection.
	Seed int64
	// MaxStates truncates the exploration after storing this many states;
	// 0 means unlimited. A truncated run turns exact answers into bounds,
	// exactly as the paper's depth-first "structured testing" mode does.
	// With Workers > 1 the admitted subset — and hence the truncated bound —
	// depends on scheduling; keep Workers at 1 when seeded reproducibility
	// of truncated bounds matters.
	MaxStates int
	// StateBudget is the hard counterpart of MaxStates: admitting more than
	// this many unique states fails the run with ErrStateBudget and partial
	// Stats (the Checker stays reusable). 0 means unlimited. Use MaxStates
	// when a truncated answer is still useful as a bound; use StateBudget
	// when exceeding the cap must be an error the caller cannot miss.
	StateBudget int
	// MaxBytes bounds the run's zone memory: once the full matrices the
	// workers' pools have allocated plus the passed store's actual footprint
	// — entries, zone-record segments, packed zone buffers and interned
	// discrete vectors (passedSet.bytes) — exceed this many bytes, the run
	// fails with ErrMemoryBudget and partial Stats via the same
	// between-expansions abort point as Cancel. 0 means unlimited. A waiting
	// state's zone is charged as the packed payload in that footprint — the
	// one copy there is of it — and matrices only as the workers' scratch.
	// Accounting is per-worker (budget.go) and adds nothing to the visitor
	// path; frontier slots, parent logs and query accumulators are not
	// counted.
	MaxBytes int64
	// Workers > 1 runs the exploration — every query kind, traces included —
	// on the work-stealing parallel frontier with that many goroutines; 0 or
	// 1 selects the sequential frontier. The routing decision is
	// Options.parallelism (checker.go), the single place the field is
	// interpreted, shared by every entry point including the cmd/ -workers
	// flags. Parallel runs reconstruct counterexamples and witnesses from
	// per-worker parent logs (see explore.go), so trace queries scale with
	// cores too. Visitors and property predicates are invoked concurrently
	// when Workers > 1 and must be safe for concurrent use.
	Workers int

	// Cancel, when non-nil, cancels the exploration cooperatively: once the
	// channel is closed (or receives), every worker stops within a bounded
	// number of expansions and the run returns ErrCanceled with the partial
	// Stats accumulated so far. Cancellation honors the pool and parent-log
	// ownership invariants — workers abort only between expansions, so every
	// state is either recycled through its owning succCtx or abandoned to the
	// garbage collector with the per-run pools; nothing dangles into a later
	// run (the run's slabs are released to later runs as raw bytes, after the
	// worker barrier like those of a completed run). Typically wired to a context's Done channel by callers that manage
	// jobs (internal/serve).
	Cancel <-chan struct{}
	// Deadline, when nonzero, bounds the exploration by wall clock: a run
	// still going when the deadline passes stops cooperatively like Cancel
	// and returns ErrDeadlineExceeded with partial Stats. The two aborts are
	// distinguishable via errors.Is even when both trigger (deadline wins the
	// check order).
	Deadline time.Time
	// Monitor, when non-nil, publishes live progress of the run: states
	// stored/popped/transitions and the frontier backlog, sampled lock-free
	// from per-worker relaxed counters (see Monitor.Snapshot). A Monitor
	// observes one exploration at a time.
	Monitor *Monitor

	// passed, when non-nil, replaces the run's passed-state store. Test-only:
	// the compact-store oracle injects a full-DBM reference implementation to
	// differentially check admission (store_oracle_test.go). Must be safe for
	// concurrent use when Workers > 1.
	passed passedSet
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

// Explore performs symbolic reachability from the initial state, sequentially
// or work-stealing-parallel according to Options.Workers. The visitor is
// invoked once for every newly stored (non-subsumed) state, including the
// initial one; returning true stops the search with Found set and a trace to
// the state. A nil visitor explores the full reachable zone graph.
//
// The visitor must not retain a state (or its zone) beyond the call on
// either path: the unified engine recycles every fully-expanded state, so a
// retained pointer is silently overwritten with later states' data.
// FoundState and the replayed trace states are exempt. With Workers > 1 the
// visitor is additionally called concurrently from several workers and must
// be safe for concurrent use. Subsumption remains sound under concurrency: a
// state admitted by two workers simultaneously is expanded at most twice
// (harmless), never lost.
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
