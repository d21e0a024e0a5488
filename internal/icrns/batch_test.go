package icrns

import (
	"errors"
	"math/big"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/dbm"
	"repro/internal/rtc"
	"repro/internal/sim"
	"repro/internal/symta"
)

// This file is the case-study half of the batch-vs-sequential oracle (the
// stress-network half lives in internal/arch/analyze_all_test.go): the
// acceptance bar for the query-set engine is that Analyze of the paper's
// requirements compiled together performs exactly ONE exploration and
// reproduces the per-requirement results bit for bit.

// alReqNames are the requirements of the AddressLookup+HandleTMC
// combination, the exhaustively tractable half of Table 1.
var alReqNames = []string{ReqHandleTMC, ReqAddressLookup}

// TestAnalyzeAllMatchesPerRequirementCells compares the batch compilation
// against each requirement compiled alone on the exhaustive ComboAL columns,
// sequentially and with Workers > 1 (run under -race by CI), and asserts the
// one-exploration invariant through the shared Stats.
func TestAnalyzeAllMatchesPerRequirementCells(t *testing.T) {
	for _, col := range []Column{ColPO, ColPNO} {
		sys, reqs := Build(ComboAL, col, DefaultConfig())
		ordered := []*arch.Requirement{reqs[ReqHandleTMC], reqs[ReqAddressLookup]}
		cs, err := arch.CompileAll(sys, ordered, arch.Options{HorizonMSFor: batchHorizons})
		if err != nil {
			t.Fatalf("col %v: %v", col, err)
		}
		for _, workers := range []int{1, 3} {
			opts := core.Options{Workers: workers}
			all, err := cs.Analyze(opts)
			if err != nil {
				t.Fatalf("col %v workers %d: %v", col, workers, err)
			}
			for i, req := range ordered {
				one, err := arch.CompileAll(sys, []*arch.Requirement{req}, arch.Options{HorizonMSFor: batchHorizons})
				if err != nil {
					t.Fatalf("col %v: compile %s alone: %v", col, req.Name, err)
				}
				alone, err := one.Analyze(opts)
				if err != nil {
					t.Fatalf("col %v: analyze %s alone: %v", col, req.Name, err)
				}
				single := alone.Results[0]
				got := all.Results[i]
				if got.MS.Cmp(single.MS) != 0 || got.Attained != single.Attained ||
					got.Exact != single.Exact || got.BeyondHorizon != single.BeyondHorizon {
					t.Errorf("col %v workers %d: batch %s = %s (att=%v exact=%v) != per-requirement %s (att=%v exact=%v)",
						col, workers, req.Name, got.MS.FloatString(3), got.Attained, got.Exact,
						single.MS.FloatString(3), single.Attained, single.Exact)
				}
				// Exactly one exploration: every result carries the shared
				// sweep's stats, not its own.
				if got.Stats != all.Stats {
					t.Errorf("col %v: %s carries stats %+v != shared sweep %+v — more than one exploration?",
						col, req.Name, got.Stats, all.Stats)
				}
			}
		}
	}
}

// TestBatchCellsReproducePaperValues anchors the batch path to the paper:
// the two published ComboAL po cells, answered from one sweep.
func TestBatchCellsReproducePaperValues(t *testing.T) {
	cells, err := Cells(ComboAL, ColPO, alReqNames, CellOptions{Cfg: DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	if got := cells[ReqHandleTMC].MS.FloatString(3); got != "172.106" {
		t.Errorf("batch HandleTMC (+AL, po) = %s, want 172.106", got)
	}
	if got := cells[ReqAddressLookup].MS.FloatString(3); got != "79.076" {
		t.Errorf("batch AddressLookup (po) = %s, want 79.076", got)
	}
}

// TestBatchWitnessFromSharedNetwork materializes a critical-instant trace
// for one requirement directly on the shared multi-observer network: a seen
// state of that requirement's observer reaching the batch-computed bound
// must be reachable, with a replay-valid trace — the batch network preserves
// each observer's measurements, traces included.
func TestBatchWitnessFromSharedNetwork(t *testing.T) {
	sys, reqs := Build(ComboAL, ColPO, DefaultConfig())
	ordered := []*arch.Requirement{reqs[ReqHandleTMC], reqs[ReqAddressLookup]}
	cs, err := arch.CompileAll(sys, ordered, arch.Options{HorizonMSFor: batchHorizons})
	if err != nil {
		t.Fatal(err)
	}
	all, err := cs.Analyze(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	checker, err := core.NewChecker(cs.Net)
	if err != nil {
		t.Fatal(err)
	}
	// AddressLookup's bound in model units on the shared scale.
	res := all.Results[1]
	bound := new(big.Rat).Mul(res.MS, new(big.Rat).SetInt(cs.Scale))
	if !bound.IsInt() {
		t.Fatalf("bound %s not integral in model units", res.MS.RatString())
	}
	v := bound.Num().Int64()
	atSeen := cs.AtSeen(1)
	yID := int(cs.Obs[1].Y.ID)
	q := core.NewReachQuery(func(s *core.State) bool {
		return atSeen(s) && s.Zone.Sup(yID) >= dbm.LE(v)
	})
	if _, err := checker.RunQueries(core.Options{}, q); err != nil {
		t.Fatal(err)
	}
	if !q.Found || len(q.Trace) == 0 {
		t.Fatal("the batch-computed WCRT must be realizable on the shared network")
	}
	last := q.Trace[len(q.Trace)-1].State
	if !atSeen(last) || last.Zone.Sup(yID) < dbm.LE(v) {
		t.Error("witness does not end in a seen state attaining the bound")
	}
}

// cvReqNames are the requirements of the ChangeVolume+HandleTMC combination,
// the half of Table 1 no budget of these tests explores exhaustively.
var cvReqNames = []string{ReqHandleTMC, ReqK2A, ReqA2V}

// assertInBracket checks res against the sandwich benchmark/expected applies
// to every Table 1 cell: the contention-free sum of the steps the requirement
// spans from below, the smaller of the rtc and symta bounds from above.
func assertInBracket(t *testing.T, combo Combo, col Column, res arch.WCRTResult) {
	t.Helper()
	sys, reqs := Build(combo, col, DefaultConfig())
	req := reqs[res.Req.Name]
	chain := new(big.Rat)
	for i := req.FromStep + 1; i <= req.ToStep; i++ {
		chain.Add(chain, req.Scenario.Steps[i].DurationMS())
	}
	mpa, err := rtc.Analyze(sys, []*arch.Requirement{req})
	if err != nil {
		t.Fatal(err)
	}
	busy, err := symta.Analyze(sys, []*arch.Requirement{req})
	if err != nil {
		t.Fatal(err)
	}
	upper := mpa[req.Name].MS
	if busy[req.Name].MS.Cmp(upper) < 0 {
		upper = busy[req.Name].MS
	}
	if res.MS.Cmp(chain) < 0 || res.MS.Cmp(upper) > 0 {
		t.Errorf("%s (%v, %v) = %s is outside [%s, %s]", req.Name, combo, col,
			res, chain.FloatString(3), upper.FloatString(3))
	}
}

// exploreSpans counts the explorations a profile-enabled monitor recorded.
func exploreSpans(mon *core.Monitor) int {
	n := 0
	for _, sp := range mon.Profile().Phases {
		if sp.Name == "explore" {
			n++
		}
	}
	return n
}

// TestBatchCellsFallbackProducesLowerBounds exercises the truncated-sweep
// path of Cells on the expensive ChangeVolume combination: a tiny budget
// truncates the shared sweep, ONE randomized depth-first run of the same
// network follows for the whole group, and every cell is the larger of its
// two non-exact lower bounds.
func TestBatchCellsFallbackProducesLowerBounds(t *testing.T) {
	mon := &core.Monitor{}
	mon.EnableProfile(core.ProfileConfig{})
	opts := CellOptions{Cfg: DefaultConfig(), MaxStates: 2000, FallbackStates: 3000, Seed: 1, Monitor: mon}
	cells, err := Cells(ComboCV, ColPO, cvReqNames, opts)
	if err != nil {
		t.Fatal(err)
	}
	if n := exploreSpans(mon); n != 2 {
		t.Errorf("truncated group of %d requirements ran %d explorations, want 2 (shared sweep, shared fallback)",
			len(cvReqNames), n)
	}
	bfsOpts := opts
	bfsOpts.FallbackStates, bfsOpts.Monitor = 0, nil
	bfs, err := Cells(ComboCV, ColPO, cvReqNames, bfsOpts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Monitor = nil
	again, err := Cells(ComboCV, ColPO, cvReqNames, opts)
	if err != nil {
		t.Fatal(err)
	}
	// The benchmark counts sweeps by distinct Stats, so every bound the one
	// fallback run produced must carry that run's Stats.
	var fallback *core.Stats
	for _, name := range cvReqNames {
		res := cells[name]
		if res.Exact {
			t.Errorf("%s: a 2000-state budget cannot be exact on ComboCV", name)
		}
		if res.MS.Sign() <= 0 {
			t.Errorf("%s: fallback lower bound must be positive, got %s", name, res.MS.RatString())
		}
		if res.MS.Cmp(bfs[name].MS) < 0 {
			t.Errorf("%s: %s is below the truncated sweep's own bound %s", name, res, bfs[name])
		}
		if r := again[name]; r.MS.Cmp(res.MS) != 0 || r.Attained != res.Attained || r.Exact != res.Exact {
			t.Errorf("%s: seed %d gave %s, then %s", name, opts.Seed, res, r)
		}
		if res.MS.Cmp(bfs[name].MS) > 0 {
			if fallback == nil {
				fallback = &res.Stats
			} else if res.Stats != *fallback {
				t.Errorf("%s: fallback bound carries stats %+v != %+v — more than one fallback run?",
					name, res.Stats, *fallback)
			}
		}
	}
	if fallback == nil {
		t.Fatal("no bound came from the fallback; the shared-Stats check is vacuous")
	}

	opts.Seed = 2
	reseeded, err := Cells(ComboCV, ColPO, cvReqNames, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range cvReqNames {
		assertInBracket(t, ComboCV, ColPO, reseeded[name])
	}
}

// TestGroupFallbackBoundsStayBelowExhaustive runs the group fallback where
// the truth is known: on AL·pno every bound of a doubly truncated call lies
// between the chain sum and the exhaustive value.
func TestGroupFallbackBoundsStayBelowExhaustive(t *testing.T) {
	exact, err := Cells(ComboAL, ColPNO, alReqNames, CellOptions{Cfg: DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	cells, err := Cells(ComboAL, ColPNO, alReqNames, CellOptions{
		Cfg: DefaultConfig(), MaxStates: 1000, FallbackStates: 3000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]string{ReqHandleTMC: "239.081", ReqAddressLookup: "79.076"} {
		if got := exact[name].MS.FloatString(3); got != want || !exact[name].Exact {
			t.Fatalf("exhaustive %s (pno) = %s, want %s", name, exact[name], want)
		}
		res := cells[name]
		if res.Exact {
			t.Errorf("%s: both sweeps were truncated, the bound cannot be exact", name)
		}
		if res.MS.Cmp(exact[name].MS) > 0 {
			t.Errorf("%s: lower bound %s exceeds the exhaustive %s", name, res, exact[name])
		}
		assertInBracket(t, ComboAL, ColPNO, res)
	}
}

// TestFallbackThatFinishesIsExact pins that a fallback run which stays under
// its budget is an exhaustive exploration: its results replace the truncated
// sweep's and are reported as exact, for a group of one requirement and of
// two alike.
func TestFallbackThatFinishesIsExact(t *testing.T) {
	opts := CellOptions{Cfg: DefaultConfig(), MaxStates: 100, FallbackStates: 100000, Seed: 1}
	cells, err := Cells(ComboAL, ColPO, []string{ReqHandleTMC}, opts)
	if err != nil {
		t.Fatal(err)
	}
	res := cells[ReqHandleTMC]
	if got := res.String(); got != "172.106" {
		t.Errorf("Cells(HandleTMC + AL, po) = %q, want the exact 172.106", got)
	}
	cells, err = Cells(ComboAL, ColPO, alReqNames, opts)
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]string{ReqHandleTMC: "172.106", ReqAddressLookup: "79.076"} {
		if got := cells[name].String(); got != want {
			t.Errorf("%s = %q, want the exact %s", name, got, want)
		}
		if st := cells[name].Stats; st.Truncated || st != cells[ReqHandleTMC].Stats {
			t.Errorf("%s carries stats %+v, want the finished fallback's", name, st)
		}
	}
}

// TestFallbackMemoryBudgetFailsTheCall gives the fallback more states than
// the memory bound holds: the truncated sweep fits, the fallback does not,
// and its core.ErrMemoryBudget must be the call's error — memory is a hard
// resource, never a reason to answer from the truncated sweep alone.
func TestFallbackMemoryBudgetFailsTheCall(t *testing.T) {
	opts := CellOptions{Cfg: DefaultConfig(), MaxStates: 100, MaxBytes: 256 << 10}
	if _, err := Cells(ComboAL, ColPNO, alReqNames, opts); err != nil {
		t.Fatalf("the truncated sweep alone must fit the memory bound: %v", err)
	}
	opts.FallbackStates = 100000
	if cells, err := Cells(ComboAL, ColPNO, alReqNames, opts); !errors.Is(err, core.ErrMemoryBudget) {
		t.Errorf("Cells = %v, %v; want core.ErrMemoryBudget from the fallback", cells, err)
	}
}

// TestTable2CheckerColumnsMatchTable2Cell pins that Table2's grouped checker
// columns print what the one-cell entry point prints, on the AL rows — the
// budget explores their 5,077-state pno group exhaustively and truncates only
// the ChangeVolume groups.
func TestTable2CheckerColumnsMatchTable2Cell(t *testing.T) {
	opts := Table2Options{
		Cell: CellOptions{Cfg: DefaultConfig(), MaxStates: 6000, FallbackStates: 1000, Seed: 1},
		Sim:  sim.Options{Seed: 1, HorizonMS: 2000, Replications: 1},
	}
	grid, err := Table2(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range Table1Rows {
		if row.Combo != ComboAL {
			continue
		}
		for tool := range checkerColumns {
			want, err := Table2Cell(row, tool, opts)
			if err != nil {
				t.Fatal(err)
			}
			if got := grid[row][tool]; got != want || strings.HasPrefix(got, ">") {
				t.Errorf("%s %v: Table2 printed %q, Table2Cell %q; want equal exact values", row.Label, tool, got, want)
			}
		}
	}
}

// TestVerifyBatchMatchesVerifyDeadline compares the batched Verify verdicts
// against the per-requirement VerifyDeadline model checks they replace.
func TestVerifyBatchMatchesVerifyDeadline(t *testing.T) {
	opts := CellOptions{Cfg: DefaultConfig()}
	verdicts, err := Verify(ComboAL, ColPO, opts)
	if err != nil {
		t.Fatal(err)
	}
	sys, reqs := Build(ComboAL, ColPO, DefaultConfig())
	for name, deadline := range Deadlines() {
		req := reqs[name]
		if req == nil {
			continue
		}
		want, _, err := arch.VerifyDeadline(sys, req, deadline,
			arch.Options{HorizonMS: HorizonMS(name)}, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got, ok := verdicts[name]; !ok || got != want {
			t.Errorf("%s: batch verdict %v (present=%v) != VerifyDeadline %v", name, got, ok, want)
		}
	}
}
