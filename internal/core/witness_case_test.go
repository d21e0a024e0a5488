package core_test

import (
	"math/big"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/dbm"
	"repro/internal/icrns"
)

// assertWCRTWitness requires result i of a traced analysis of cs to carry a
// witness that replays through the index-free reference and ends in
// observer i's seen location with the observer clock's upper bound at the
// result's value, strictness included — or unbounded, on a BeyondHorizon
// result.
func assertWCRTWitness(t *testing.T, c *core.Checker, cs *arch.CompiledSet, i int, res arch.WCRTResult) {
	t.Helper()
	if len(res.Witness) == 0 {
		t.Fatalf("%s: no witness", res.Req.Name)
	}
	core.ReplayTraceByReference(t, c, res.Witness)
	want := dbm.Infinity
	if !res.BeyondHorizon {
		units := new(big.Rat).Mul(res.MS, new(big.Rat).SetInt(cs.Scale))
		if !units.IsInt() {
			t.Fatalf("%s: %s ms is not whole model time units", res.Req.Name, res.MS.RatString())
		}
		if want = dbm.LT(units.Num().Int64()); res.Attained {
			want = dbm.LE(units.Num().Int64())
		}
	}
	last := res.Witness[len(res.Witness)-1].State
	if got := last.Zone.Sup(int(cs.Obs[i].Y.ID)); !cs.AtSeen(i)(last) || got != want {
		t.Errorf("%s: witness ends seen=%v with the observer clock at %v, want seen at %v",
			res.Req.Name, cs.AtSeen(i)(last), got, want)
	}
}

// caseGroup compiles one (combination, column) group of the case study the
// way icrns.Cells does.
func caseGroup(t *testing.T, combo icrns.Combo, col icrns.Column, names ...string) *arch.CompiledSet {
	t.Helper()
	sys, all := icrns.Build(combo, col, icrns.DefaultConfig())
	reqs := make([]*arch.Requirement, len(names))
	for i, n := range names {
		reqs[i] = all[n]
	}
	cs, err := arch.CompileAll(sys, reqs, arch.Options{
		HorizonMSFor: func(r *arch.Requirement) int64 { return icrns.HorizonMS(r.Name) },
	})
	if err != nil {
		t.Fatal(err)
	}
	return cs
}

// TestWCRTWitnessesReplay checks every witness a traced analysis returns
// from its one sweep, on the case study's exhaustive groups (AL·po, AL·pno,
// AL·sp, CV·po) and the 10-scenario chain: each replays as a valid run and
// ends where the requirement's WCRT is attained or approached. A truncated
// sweep's witnesses end at its lower bounds: CV·pno's HandleTMC at 20,000
// states, breadth-first and on the randomized depth-first fallback icrns
// runs after it.
func TestWCRTWitnessesReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("case-study and chain sweeps in -short mode")
	}
	al := []string{icrns.ReqHandleTMC, icrns.ReqAddressLookup}
	sets := []struct {
		name string
		cs   *arch.CompiledSet
		opts []core.Options
	}{
		{"AL·po", caseGroup(t, icrns.ComboAL, icrns.ColPO, al...), []core.Options{{}}},
		{"AL·pno", caseGroup(t, icrns.ComboAL, icrns.ColPNO, al...), []core.Options{{}}},
		{"AL·sp", caseGroup(t, icrns.ComboAL, icrns.ColSP, al...), []core.Options{{}}},
		{"CV·po", caseGroup(t, icrns.ComboCV, icrns.ColPO, icrns.ReqHandleTMC, icrns.ReqK2A, icrns.ReqA2V), []core.Options{{}}},
		{"chain of 10", chainSet(t, 10), []core.Options{{}}},
		{"CV·pno HandleTMC", caseGroup(t, icrns.ComboCV, icrns.ColPNO, icrns.ReqHandleTMC), []core.Options{
			{MaxStates: 20000},
			{Order: core.RDFS, Seed: 1, MaxStates: 20000},
		}},
	}
	for _, set := range sets {
		c, err := core.NewChecker(set.cs.Net)
		if err != nil {
			t.Fatal(err)
		}
		for _, opts := range set.opts {
			all, err := set.cs.AnalyzeTraced(opts)
			if err != nil {
				t.Fatalf("%s, %s: %v", set.name, opts.Order, err)
			}
			if want := opts.MaxStates > 0; all.Stats.Truncated != want {
				t.Fatalf("%s, %s: truncated=%v, want %v", set.name, opts.Order, all.Stats.Truncated, want)
			}
			t.Logf("%s, %s: %s", set.name, opts.Order, all.Stats)
			for i, res := range all.Results {
				assertWCRTWitness(t, c, set.cs, i, res)
				t.Logf("  %s = %s ms, a %d-step witness", res.Req.Name, res, len(res.Witness))
			}
		}
	}
}
