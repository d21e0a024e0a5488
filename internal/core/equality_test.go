package core

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"repro/internal/ta"
)

// The tests in this file pin the engine's one-answer rule: Options.Workers
// selects nothing, and neither GOMAXPROCS nor the lookahead helper changes
// what a sweep admits, in what order, or what it answers. A setting is run
// against a reference run of the same network and order, and the two must
// be the same sweep: equal Stats, the same states admitted in the same
// order, and on a query set equal verdicts, found states and witness traces.

// setting is one way to run a sweep that must not change its answer.
type setting struct {
	workers   int // Options.Workers
	procs     int // GOMAXPROCS during the run; 0 leaves it as it is
	lookahead lookaheadMode
}

func (s setting) String() string {
	return fmt.Sprintf("workers=%d procs=%d lookahead=%d", s.workers, s.procs, s.lookahead)
}

// sweepAnswers is everything one setting's run answers about a network.
type sweepAnswers struct {
	admitted []*State // every admitted state, in admission order
	stats    Stats
	dl       *DeadlockQuery
	sup      *SupClockQuery
	reach    *ReachQuery
}

// answer runs one sweep under one setting with a query set: a query that
// records every admitted state and never completes, so the sweep is
// exhaustive (up to MaxStates), a deadlock query, the supremum of the first
// clock with its witness, and a reach query for target.
func answer(t *testing.T, c *Checker, base Options, st setting, target *State) sweepAnswers {
	t.Helper()
	if st.procs > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(st.procs))
	}
	opts := base
	opts.Workers, opts.lookahead = st.workers, st.lookahead
	var a sweepAnswers
	record := NewReachQuery(func(s *State) bool {
		a.admitted = append(a.admitted, cloneState(s))
		return false
	})
	a.dl = NewDeadlockQuery()
	a.sup = NewSupClockQuery(c.net.Clocks[1].ID, func(*State) bool { return true })
	a.sup.Witness = true
	a.reach = NewReachQuery(func(s *State) bool {
		return slices.Equal(s.Locs, target.Locs) && slices.Equal(s.Vars, target.Vars)
	})
	var err error
	if a.stats, err = c.RunQueries(opts, record, a.dl, a.sup, a.reach); err != nil {
		t.Fatal(err)
	}
	return a
}

// sameAnswers requires got to be the sweep want is.
func sameAnswers(t *testing.T, what string, got, want sweepAnswers) {
	t.Helper()
	sameSweep(t, what, got.admitted, want.admitted, got.stats, want.stats)
	if !sameStats(got.stats, want.stats) {
		t.Errorf("%s: stats %v, reference %v", what, got.stats, want.stats)
	}
	if got.dl.Result.Free != want.dl.Result.Free {
		t.Errorf("%s: deadlock-free %v, reference %v", what, got.dl.Result.Free, want.dl.Result.Free)
	}
	sameTrace(t, what+", deadlock witness", got.dl.Result.Witness, want.dl.Result.Witness)
	gs, ws := got.sup.Result, want.sup.Result
	if gs.Seen != ws.Seen || gs.Max != ws.Max || gs.Unbounded != ws.Unbounded {
		t.Errorf("%s: supremum (%v,%v,%v), reference (%v,%v,%v)", what, gs.Seen, gs.Max, gs.Unbounded, ws.Seen, ws.Max, ws.Unbounded)
	}
	sameTrace(t, what+", supremum witness", gs.Witness, ws.Witness)
	gr, wr := got.reach, want.reach
	if gr.Found != wr.Found || (gr.Found && !sameState(gr.FoundState, wr.FoundState)) {
		t.Errorf("%s: reach found %v, reference %v, or on a different state", what, gr.Found, wr.Found)
	}
	sameTrace(t, what+", reach trace", gr.Trace, wr.Trace)
}

// sweepsAgree runs net in every order under ref and under each of settings,
// and requires every setting to be ref's sweep. The reach query looks for the
// last state a plain sweep of the order admits.
func sweepsAgree(t *testing.T, name string, net *ta.Network, maxStates int, ref setting, settings []setting) {
	t.Helper()
	c, err := NewChecker(net)
	if err != nil {
		t.Fatal(err)
	}
	for _, order := range []Order{BFS, DFS, RDFS} {
		base := Options{Order: order, Seed: 7, MaxStates: maxStates}
		last, _ := admissions(t, c, base)
		want := answer(t, c, base, ref, last[len(last)-1])
		for _, st := range settings {
			got := answer(t, c, base, st, last[len(last)-1])
			sameAnswers(t, fmt.Sprintf("%s, %s, %v", name, order, st), got, want)
		}
	}
}

// equalityNet is one network of the equality tests, with the state cap its
// sweeps run under (0: exhaustive).
type equalityNet struct {
	name      string
	net       *ta.Network
	maxStates int
}

// equalityNets are the networks the equality tests sweep: the grid,
// Fischer-4, the networks of the store oracles, and the first twelve
// networks of diffExplore's random corpus as deep as 3,000 states.
func equalityNets(t *testing.T) []equalityNet {
	grid, _, _, _ := buildGrid(t)
	nets := []equalityNet{
		{"grid", grid, 0},
		{"fischer-4", buildFischer(t, 4), 0},
		{"widening", buildWidening(t, 6), 0},
		{"radio", testRadioNet(t), 0},
		{"diag", testDiagNet(t), 0},
		{"independent", buildIndependent(t, 2, 40), 0},
	}
	for seed := int64(0); seed < 12; seed++ {
		nets = append(nets, equalityNet{fmt.Sprintf("random %d", seed), randNet(seed), 3000})
	}
	return nets
}

// TestWorkersGiveOneAnswer is the one-answer table: every network of
// equalityNets, in BFS, DFS and RDFS, under GOMAXPROCS 1 and 2, with the
// lookahead helper by the default rule and forced on, must be the sweep
// GOMAXPROCS 1 makes — inline, since the default rule never engages the
// helper on one processor. The engine reads no Options.Workers, so one
// Workers: 4 setting stands for every worker count.
func TestWorkersGiveOneAnswer(t *testing.T) {
	ref := setting{workers: 1, procs: 1, lookahead: lookaheadAuto}
	settings := []setting{{workers: 4, procs: 2, lookahead: lookaheadOn}}
	for _, procs := range []int{1, 2} {
		for _, m := range []lookaheadMode{lookaheadAuto, lookaheadOn} {
			if st := (setting{1, procs, m}); st != ref {
				settings = append(settings, st)
			}
		}
	}
	for _, n := range equalityNets(t) {
		sweepsAgree(t, n.name, n.net, n.maxStates, ref, settings)
	}
}
